// Seeded random scenario texts shared by the test suites that compare a
// production path against a reference on many generated settings.
#ifndef GDX_TESTS_RANDOM_SETTINGS_H_
#define GDX_TESTS_RANDOM_SETTINGS_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"

namespace gdx {

/// A random R/S setting shaped like the benchmark's search-random draws —
/// a few facts, one to three s-t tgds with NRE heads (symbol,
/// concatenation, union, star) — carrying `num_egds` egds of one or two
/// atoms over the head labels, some of them starred. Two or more egds make
/// the candidate repair fan the egds' matchers out over one graph.
inline std::string RandomMultiEgdSetting(uint64_t seed, size_t num_egds) {
  static const char* const kLabels[] = {"a", "b", "c", "hub"};
  static const char* const kEgdVars[] = {"u1", "u2", "v1", "v2"};
  static const char* const kRelations[] = {"R", "S"};
  // One draw per statement: the order of draws within one expression is
  // unspecified, and the settings must not depend on the compiler.
  Rng rng(seed);
  auto pick = [&rng](const auto& from) {
    const int64_t last = static_cast<int64_t>(std::size(from)) - 1;
    return std::string(from[rng.UniformInt(0, last)]);
  };
  std::string text = "relation R/2\nrelation S/2\n";
  const int64_t consts = rng.UniformInt(3, 5);
  for (int64_t i = rng.UniformInt(3, 6); i > 0; --i) {
    text += "fact " + pick(kRelations);
    text += "(k" + std::to_string(rng.UniformInt(0, consts - 1));
    text += ", k" + std::to_string(rng.UniformInt(0, consts - 1)) + ")\n";
  }
  for (int64_t i = rng.UniformInt(1, 3); i > 0; --i) {
    text += "stgd " + pick(kRelations) + "(x, y) -> (x, ";
    text += pick(kLabels);
    const double shape = rng.UniformDouble();
    if (shape < 0.2) {
      text += " . " + pick(kLabels);
    } else if (shape < 0.35) {
      text += " + " + pick(kLabels);
    } else if (shape < 0.45) {
      text += "*";
    }
    text += rng.Bernoulli(0.5) ? ", e)\n" : ", y)\n";
  }
  for (size_t i = 0; i < num_egds; ++i) {
    std::vector<std::string> used;
    text += "egd ";
    for (int64_t j = rng.UniformInt(1, 2); j > 0; --j) {
      if (!used.empty()) text += ", ";
      used.push_back(pick(kEgdVars));
      used.push_back(pick(kEgdVars));
      text += "(" + used[used.size() - 2] + ", " + pick(kLabels);
      if (rng.Bernoulli(0.2)) text += "*";
      text += ", " + used.back() + ")";
    }
    text += " -> " + pick(used);
    text += " = " + pick(used) + "\n";
  }
  return text;
}

}  // namespace gdx

#endif  // GDX_TESTS_RANDOM_SETTINGS_H_
