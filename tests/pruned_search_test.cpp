// Singleton egd nogoods in the bounded existence search. Before its scan
// the search rejects every (pattern edge, witness) pair that fails on its
// own, and walks only the surviving witness choices; the rejection must
// never change an outcome. The differential battery compares Decide
// (kBoundedSearch) and EnumerateSolutions with an unpruned rank loop built
// here from public calls, on random settings with 1-3 egds, hard
// bounded-search instances shaped like the benchmark's and Theorem 4.1
// reductions, at 1 and 4 intra-solve workers: verdict, note, witness
// bytes, candidates_tried and enumerated solutions must all match. The
// regression tests pin the verdict for an edge without witnesses and a
// single bounded search per Decide.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "chase/chase_compiler.h"
#include "chase/egd_chase.h"
#include "chase/sameas_completion.h"
#include "chase/target_tgd_chase.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/exchange_engine.h"
#include "exchange/solution_check.h"
#include "graph/isomorphism.h"
#include "pattern/witness.h"
#include "reduction/sat_encoding.h"
#include "sat/gen.h"
#include "solver/existence.h"
#include "workload/scenario_parser.h"

#include "random_settings.h"

namespace gdx {
namespace {

AutomatonNreEvaluator eval;

ThreadPool& SharedPool() {
  static ThreadPool pool(3);  // 4 workers including the caller
  return pool;
}

// --- Battery inputs ---------------------------------------------------------

/// A bounded-search instance shaped like the benchmark's hard share: R
/// facts forming a random tree over distinct constants, each realised by
/// `p + q . q`, and an egd on one of the two labels — on p every p witness
/// clashes two constants by itself, on q every q . q witness does.
std::string HardSetting(uint64_t seed) {
  static const char* const kLabels[] = {"a", "b", "c", "d", "hub"};
  Rng rng(seed);
  const int64_t p = rng.UniformInt(0, 4);
  const int64_t q = (p + rng.UniformInt(1, 4)) % 5;
  const int64_t bits = rng.UniformInt(3, 8);
  std::string text = "relation R/2\n";
  for (int64_t i = 1; i <= bits; ++i) {
    const std::string parent = "n" + std::to_string(rng.UniformInt(0, i - 1));
    const std::string child = "n" + std::to_string(i);
    text += rng.Bernoulli(0.5) ? "fact R(" + parent + ", " + child + ")\n"
                               : "fact R(" + child + ", " + parent + ")\n";
  }
  text += std::string("stgd R(x, y) -> (x, ") + kLabels[p] + " + " +
          kLabels[q] + " . " + kLabels[q] + ", y)\n";
  const bool on_p = rng.Bernoulli(0.75);
  text += std::string("egd (u1, ") + kLabels[on_p ? p : q] +
          ", v1) -> u1 = v1\n";
  return text;
}

/// A CNF over 3-7 variables with clauses of width 1-3: unit clauses make
/// single witnesses fail, wider ones only combinations.
CnfFormula MixedCnf(uint64_t seed) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.UniformInt(3, 7));
  CnfFormula f(n);
  for (int64_t m = rng.UniformInt(n, 3 * n); m > 0; --m) {
    const int width = rng.Bernoulli(0.15)
                          ? 1
                          : static_cast<int>(rng.UniformInt(2, 3));
    f.AddClause(RandomKSat(n, 1, width, rng).clauses()[0]);
  }
  return f;
}

/// One battery input, rebuilt for every run: a run mutates the universe.
struct Problem {
  Scenario scenario;  // parsed settings
  std::unique_ptr<Universe> reduction_universe;
  std::unique_ptr<SatEncodedExchange> reduction;  // Theorem 4.1 inputs

  const Setting& setting() const {
    return reduction ? reduction->setting : scenario.setting;
  }
  const Instance& instance() const {
    return reduction ? *reduction->instance : *scenario.instance;
  }
  Universe& universe() {
    return reduction ? *reduction_universe : *scenario.universe;
  }
  const Alphabet& alphabet() const {
    return reduction ? *reduction->alphabet : *scenario.alphabet;
  }
};

Problem MakeProblem(uint64_t seed) {
  Problem p;
  switch (seed % 3) {
    case 0: {
      const std::string text = RandomMultiEgdSetting(seed, 1 + seed / 3 % 3);
      Result<Scenario> s = ParseScenario(text);
      EXPECT_TRUE(s.ok()) << s.status().ToString() << "\n" << text;
      if (s.ok()) p.scenario = std::move(s).value();
      break;
    }
    case 1: {
      Result<Scenario> s = ParseScenario(HardSetting(seed));
      EXPECT_TRUE(s.ok()) << s.status().ToString();
      if (s.ok()) p.scenario = std::move(s).value();
      break;
    }
    default: {
      p.reduction_universe = std::make_unique<Universe>();
      Result<SatEncodedExchange> enc = EncodeSatToSetting(
          MixedCnf(seed), *p.reduction_universe, ReductionMode::kEgd);
      EXPECT_TRUE(enc.ok()) << enc.status().ToString();
      if (enc.ok()) {
        p.reduction =
            std::make_unique<SatEncodedExchange>(std::move(enc).value());
      }
      break;
    }
  }
  return p;
}

ExistenceOptions BatteryOptions(uint64_t seed, size_t workers) {
  // Budgets that cut the rank space mid-way as well as ones that cover it.
  static const size_t kBudgets[] = {5, 100, 4096};
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kBoundedSearch;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_candidates = kBudgets[seed / 9 % 3];
  options.intra_solve_threads = workers;
  options.intra_pool = workers > 1 ? &SharedPool() : nullptr;
  options.parallel_min_ranks = 2;  // fan out even small spaces
  options.parallel_chunk = 4;
  return options;
}

// --- The unpruned reference -------------------------------------------------

/// RepairAndVerify from public calls: egd repair, target tgds (and one
/// more egd repair when they added anything), sameAs completion, check.
std::optional<Graph> ReferenceRepair(Graph candidate, Problem& p,
                                     const ExistenceOptions& options) {
  const Setting& setting = p.setting();
  if (!setting.egds.empty() &&
      ChaseGraphEgds(candidate, setting.egds, eval).failed) {
    return std::nullopt;
  }
  if (!setting.target_tgds.empty()) {
    const size_t nodes = candidate.num_nodes();
    const size_t edges = candidate.num_edges();
    if (!ChaseTargetTgds(candidate, setting.target_tgds, p.universe(), eval,
                         options.target_tgd_max_rounds)
             .ok()) {
      return std::nullopt;
    }
    const bool extended =
        candidate.num_nodes() != nodes || candidate.num_edges() != edges;
    if (extended && !setting.egds.empty() &&
        ChaseGraphEgds(candidate, setting.egds, eval).failed) {
      return std::nullopt;
    }
  }
  if (!setting.sameas.empty() &&
      !CompleteSameAs(candidate, setting.sameas, *setting.alphabet, eval)
           .ok()) {
    return std::nullopt;
  }
  if (!IsSolution(setting, p.instance(), candidate, eval, p.universe())) {
    return std::nullopt;
  }
  return candidate;
}

/// The choice vector of a full rank in odometer order: edge 0 is the
/// least significant digit.
std::vector<size_t> DecodeRank(const PatternInstantiator& instantiator,
                               size_t rank) {
  const auto& lists = instantiator.witness_lists();
  std::vector<size_t> choices(lists.size(), 0);
  for (size_t i = 0; i < lists.size(); ++i) {
    choices[i] = rank % lists[i].size();
    rank /= lists[i].size();
  }
  return choices;
}

struct Decision {
  ExistenceVerdict verdict = ExistenceVerdict::kUnknown;
  std::string note;
  std::string witness;  // rendered; empty without one
  size_t candidates_tried = 0;
  bool budget_exhausted = false;
};

Decision FromReport(const ExistenceReport& report, Problem& p) {
  Decision d;
  d.verdict = report.verdict;
  d.note = report.note;
  if (report.witness.has_value()) {
    d.witness = report.witness->ToString(p.universe(), p.alphabet());
  }
  d.candidates_tried = report.candidates_tried;
  d.budget_exhausted = report.budget_exhausted;
  return d;
}

/// The bounded search without nogoods: every rank below the budget, in
/// order, each from the same rolled-back null mark.
Decision ReferenceDecide(Problem& p, const ExistenceOptions& options) {
  Decision d;
  ChasedScenarioPtr chased =
      ChaseCompiler::Compile(p.setting(), p.instance(), p.universe(), eval);
  if (chased->failed) {
    d.verdict = ExistenceVerdict::kNo;
    d.note = "adapted chase failed: " + chased->failure_reason;
    return d;
  }
  PatternInstantiator instantiator(&chased->pattern, options.instantiation);
  const size_t total = instantiator.NumCombinations();
  if (total == 0) {
    d.note = "a pattern edge has no witness within budget";
    d.budget_exhausted = true;
    return d;
  }
  const size_t num_ranks = std::min(total, options.max_candidates);
  const size_t mark = p.universe().NullMark();
  for (size_t rank = 0; rank < num_ranks; ++rank) {
    p.universe().RollbackNulls(mark);
    Result<Graph> candidate = instantiator.Instantiate(
        DecodeRank(instantiator, rank), p.universe());
    if (!candidate.ok()) continue;
    std::optional<Graph> solution =
        ReferenceRepair(std::move(candidate).value(), p, options);
    if (!solution.has_value()) continue;
    d.verdict = ExistenceVerdict::kYes;
    d.note = "bounded search found a verified solution";
    d.witness = solution->ToString(p.universe(), p.alphabet());
    d.candidates_tried = rank + 1;
    return d;
  }
  p.universe().RollbackNulls(mark);
  d.candidates_tried = num_ranks;
  if (total > num_ranks) {
    d.note = "candidate budget exhausted";
    d.budget_exhausted = true;
    return d;
  }
  d.verdict = ExistenceVerdict::kNo;
  d.note =
      "bounded search exhausted all witness combinations without a "
      "solution (complete for witness-covered fragments, e.g. Thm 4.1's)";
  return d;
}

/// Enumeration without nogoods: the first `max_solutions` distinct
/// solutions in rank order, deduplicated by signature and up to null
/// renaming; their nulls stay unregistered.
std::vector<std::string> ReferenceEnumerate(Problem& p,
                                            const ExistenceOptions& options,
                                            size_t max_solutions) {
  std::vector<std::string> out;
  ChasedScenarioPtr chased =
      ChaseCompiler::Compile(p.setting(), p.instance(), p.universe(), eval);
  if (chased->failed) return out;
  PatternInstantiator instantiator(&chased->pattern, options.instantiation);
  const size_t num_ranks =
      std::min(instantiator.NumCombinations(), options.max_candidates);
  const size_t mark = p.universe().NullMark();
  std::unordered_set<std::string> seen;
  std::vector<Graph> kept;
  for (size_t rank = 0; rank < num_ranks && kept.size() < max_solutions;
       ++rank) {
    p.universe().RollbackNulls(mark);
    Result<Graph> candidate = instantiator.Instantiate(
        DecodeRank(instantiator, rank), p.universe());
    if (!candidate.ok()) continue;
    std::optional<Graph> solution =
        ReferenceRepair(std::move(candidate).value(), p, options);
    if (!solution.has_value()) continue;
    if (!seen.insert(solution->Signature(p.universe(), p.alphabet()))
             .second) {
      continue;
    }
    const bool duplicate =
        std::any_of(kept.begin(), kept.end(), [&](const Graph& g) {
          return IsomorphicUpToNulls(*solution, g);
        });
    if (!duplicate) kept.push_back(std::move(*solution));
  }
  p.universe().RollbackNulls(mark);
  for (const Graph& g : kept) {
    out.push_back(g.ToString(p.universe(), p.alphabet()));
  }
  return out;
}

std::string Describe(uint64_t seed, Problem& p) {
  if (p.reduction) return "seed " + std::to_string(seed) + " (reduction)";
  return "seed " + std::to_string(seed) + "\n" +
         (seed % 3 == 0 ? RandomMultiEgdSetting(seed, 1 + seed / 3 % 3)
                        : HardSetting(seed));
}

// --- The differential battery ----------------------------------------------

TEST(PrunedSearchTest, MatchesTheUnprunedScanOn240Seeds) {
  constexpr size_t kMaxSolutions = 6;
  size_t pruned_total = 0;
  size_t pruned_hits = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    Problem ref = MakeProblem(seed);
    if (HasFailure()) return;
    const Decision want = ReferenceDecide(ref, BatteryOptions(seed, 1));
    Problem ref_enum = MakeProblem(seed);
    const std::vector<std::string> want_solutions =
        ReferenceEnumerate(ref_enum, BatteryOptions(seed, 1), kMaxSolutions);

    size_t pruned_at_one = 0;
    for (size_t workers : {1u, 4u}) {
      const ExistenceOptions options = BatteryOptions(seed, workers);
      Problem p = MakeProblem(seed);
      const std::string where =
          Describe(seed, p) + "\nat " + std::to_string(workers) + " workers";
      ExistenceReport report = ExistenceSolver(&eval, options)
                                   .Decide(p.setting(), p.instance(),
                                           p.universe());
      const Decision got = FromReport(report, p);
      EXPECT_EQ(got.verdict, want.verdict) << where;
      EXPECT_EQ(got.note, want.note) << where;
      EXPECT_EQ(got.witness, want.witness) << where;
      EXPECT_EQ(got.candidates_tried, want.candidates_tried) << where;
      EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << where;
      EXPECT_LE(report.candidates_pruned, report.candidates_tried) << where;
      if (workers == 1) {
        pruned_at_one = report.candidates_pruned;
        pruned_total += report.candidates_pruned;
        pruned_hits += report.candidates_pruned > 0 ? 1 : 0;
      } else {
        EXPECT_EQ(report.candidates_pruned, pruned_at_one) << where;
      }

      Problem q = MakeProblem(seed);
      std::vector<std::string> solutions;
      for (const Graph& g :
           ExistenceSolver(&eval, options)
               .EnumerateSolutions(q.setting(), q.instance(), q.universe(),
                                   kMaxSolutions)) {
        solutions.push_back(g.ToString(q.universe(), q.alphabet()));
      }
      EXPECT_EQ(solutions, want_solutions) << where;
    }
  }
  // The battery must exercise the pruning, not only the identity map.
  EXPECT_GT(pruned_hits, 40u);
  EXPECT_GT(pruned_total, 1000u);
}

// --- Targeted cases ---------------------------------------------------------

TEST(PrunedSearchTest, HardInstanceDecidesEveryRankAfterOneTestPerWitness) {
  // 12 R facts, `p + q . q`, egd on p: every p witness clashes two
  // constants by itself, so one candidate — the last rank — remains.
  std::string text = "relation R/2\n";
  for (int i = 1; i <= 12; ++i) {
    text += "fact R(n" + std::to_string(i - 1) + ", n" + std::to_string(i) +
            ")\n";
  }
  text += "stgd R(x, y) -> (x, b + c . c, y)\negd (u1, b, v1) -> u1 = v1\n";
  Result<Scenario> s = ParseScenario(text);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kBoundedSearch;
  options.instantiation.max_witnesses_per_edge = 3;
  ExistenceReport report = ExistenceSolver(&eval, options)
                               .Decide(s->setting, *s->instance,
                                       *s->universe);
  ASSERT_EQ(report.verdict, ExistenceVerdict::kYes) << report.note;
  EXPECT_EQ(report.candidates_tried, size_t{1} << 12);
  EXPECT_EQ(report.candidates_pruned, (size_t{1} << 12) - 1);

  // A budget one rank short of the winner exhausts without instantiating.
  options.max_candidates = (size_t{1} << 12) - 1;
  Result<Scenario> t = ParseScenario(text);
  ASSERT_TRUE(t.ok());
  report = ExistenceSolver(&eval, options)
               .Decide(t->setting, *t->instance, *t->universe);
  EXPECT_EQ(report.verdict, ExistenceVerdict::kUnknown);
  EXPECT_EQ(report.note, "candidate budget exhausted");
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_EQ(report.candidates_tried, options.max_candidates);
  EXPECT_EQ(report.candidates_pruned, options.max_candidates);
}

TEST(PrunedSearchTest, SaturatedRankSpaceKeepsItsLowRanks) {
  // 10 R edges whose b witness clashes, then 60 S edges that keep both
  // witnesses: the space (2^70) saturates at SIZE_MAX. The first solution
  // takes c . c on the R edges and e on the S edges — full rank 2^10 - 1.
  // Mapping it back must not saturate the S edges' zero digits.
  std::string text = "relation R/2\nrelation S/2\n";
  for (int i = 1; i <= 10; ++i) {
    text += "fact R(n" + std::to_string(i - 1) + ", n" + std::to_string(i) +
            ")\n";
  }
  for (int i = 1; i <= 60; ++i) {
    text += "fact S(m" + std::to_string(i - 1) + ", m" + std::to_string(i) +
            ")\n";
  }
  text +=
      "stgd R(x, y) -> (x, b + c . c, y)\n"
      "stgd S(x, y) -> (x, e + d . d, y)\n"
      "egd (u1, b, v1) -> u1 = v1\n";
  Result<Scenario> s = ParseScenario(text);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kBoundedSearch;
  options.instantiation.max_witnesses_per_edge = 3;
  ExistenceReport report = ExistenceSolver(&eval, options)
                               .Decide(s->setting, *s->instance,
                                       *s->universe);
  EXPECT_EQ(report.verdict, ExistenceVerdict::kYes) << report.note;
  EXPECT_EQ(report.candidates_tried, size_t{1} << 10);
  EXPECT_EQ(report.candidates_pruned, (size_t{1} << 10) - 1);
}

// --- An edge without witnesses ---------------------------------------------

constexpr char kNineStepHead[] =
    "relation R/2\n"
    "fact R(k1, k2)\n"
    "stgd R(x, y) -> (x, a . a . a . a . a . a . a . a . a, y)\n";

TEST(PrunedSearchTest, EdgeWithoutWitnessIsUnknownNotNo) {
  // No target constraints, so a solution exists (§3.2); nine steps only
  // exceed the default eight-edge witness budget.
  Result<Scenario> s = ParseScenario(kNineStepHead);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExchangeEngine engine{EngineOptions()};
  Result<ExchangeOutcome> outcome = engine.Solve(*s);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kUnknown);
  EXPECT_TRUE(outcome->existence.budget_exhausted);
  EXPECT_EQ(outcome->existence.note,
            "a pattern edge has no witness within budget");
}

TEST(PrunedSearchTest, EdgeWithoutWitnessCertifiesNothing) {
  Result<Scenario> s = ParseScenario(std::string(kNineStepHead) +
                                     "query (x1, b, x2) -> x1, x2\n");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ExchangeEngine engine{EngineOptions()};
  Result<ExchangeOutcome> outcome = engine.Solve(*s);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->certain.has_value());
  EXPECT_FALSE(outcome->certain->no_solution)
      << "an unrealized edge is no proof that no solution exists";
  EXPECT_TRUE(outcome->certain->tuples.empty());
  EXPECT_EQ(outcome->ToString(*s->universe, *s->alphabet),
            "existence: UNKNOWN  (a pattern edge has no witness within "
            "budget)\ncertain answers (0 solution(s) intersected):\n");
}

// --- One bounded search per Decide ------------------------------------------

/// Counts every evaluation it forwards.
class CountingEvaluator : public NreEvaluator {
 public:
  BinaryRelation Eval(const NrePtr& nre, const Graph& g) const override {
    ++calls_;
    return inner_.Eval(nre, g);
  }
  BinaryRelation EvalOnView(const NrePtr& nre,
                            const GraphView& view) const override {
    ++calls_;
    return inner_.EvalOnView(nre, view);
  }
  BinaryRelation EvalDeferred(
      const NrePtr& nre, const Graph& g,
      const std::function<const GraphView&()>& view) const override {
    ++calls_;
    return inner_.EvalDeferred(nre, g, view);
  }
  const char* name() const override { return "counting"; }
  std::vector<Value> EvalFrom(const NrePtr& nre, const Graph& g,
                              Value src) const override {
    ++calls_;
    return inner_.EvalFrom(nre, g, src);
  }
  std::vector<std::vector<Value>> EvalFromMany(
      const NrePtr& nre, const Graph& g,
      const std::vector<Value>& srcs) const override {
    ++calls_;
    return inner_.EvalFromMany(nre, g, srcs);
  }
  bool Contains(const NrePtr& nre, const Graph& g, Value src,
                Value dst) const override {
    ++calls_;
    return inner_.Contains(nre, g, src, dst);
  }

  size_t calls() const { return calls_.load(); }

 private:
  AutomatonNreEvaluator inner_;
  mutable std::atomic<size_t> calls_{0};
};

// Not flat (the head concatenates), and the egd needs two consecutive p
// edges, so no single witness fails: nothing is pruned, and with edges 3
// and 4 fixed to p the first 8 ranks all clash n3 with n5.
constexpr char kNonFlatChain[] =
    "relation R/2\n"
    "fact R(n0, n1)\nfact R(n1, n2)\nfact R(n2, n3)\nfact R(n3, n4)\n"
    "fact R(n4, n5)\n"
    "stgd R(x, y) -> (x, p + q . q, y)\n"
    "egd (u1, p, v1), (v1, p, w1) -> u1 = w1\n";

TEST(PrunedSearchTest, AutoRunsTheBoundedSearchOnce) {
  auto decide = [](ExistenceStrategy strategy, size_t* calls,
                   const CancellationToken* cancel) {
    Result<Scenario> s = ParseScenario(kNonFlatChain);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    CountingEvaluator counting;
    ExistenceOptions options;
    options.strategy = strategy;
    options.instantiation.max_witnesses_per_edge = 3;
    options.max_candidates = 8;
    options.cancel = cancel;
    ExistenceReport report = ExistenceSolver(&counting, options)
                                 .Decide(s->setting, *s->instance,
                                         *s->universe);
    *calls = counting.calls();
    return report;
  };
  size_t auto_calls = 0;
  size_t search_calls = 0;
  ExistenceReport automatic =
      decide(ExistenceStrategy::kAuto, &auto_calls, nullptr);
  ExistenceReport search =
      decide(ExistenceStrategy::kBoundedSearch, &search_calls, nullptr);
  ASSERT_EQ(search.verdict, ExistenceVerdict::kUnknown) << search.note;
  EXPECT_EQ(search.note, "candidate budget exhausted");
  EXPECT_EQ(search.candidates_tried, 8u);
  EXPECT_EQ(search.candidates_pruned, 0u);
  EXPECT_GT(search_calls, 0u);
  EXPECT_EQ(automatic.verdict, ExistenceVerdict::kUnknown);
  EXPECT_EQ(automatic.candidates_tried, search.candidates_tried);
  EXPECT_EQ(automatic.note.rfind("not flat (", 0), 0u) << automatic.note;
  EXPECT_NE(automatic.note.find("fell back to bounded search. candidate "
                                "budget exhausted"),
            std::string::npos)
      << automatic.note;
  EXPECT_EQ(auto_calls, search_calls)
      << "kAuto must not repeat the bounded search";

  // A cancelled fallback keeps the exact cancellation note.
  CancellationToken token;
  token.RequestStop();
  size_t cancelled_calls = 0;
  ExistenceReport cancelled =
      decide(ExistenceStrategy::kAuto, &cancelled_calls, &token);
  EXPECT_EQ(cancelled.verdict, ExistenceVerdict::kUnknown);
  EXPECT_EQ(cancelled.note, "search cancelled");
  cancelled = decide(ExistenceStrategy::kSatBacked, &cancelled_calls, &token);
  EXPECT_EQ(cancelled.note, "search cancelled");
}

}  // namespace
}  // namespace gdx
