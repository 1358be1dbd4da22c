#ifndef GDX_ENGINE_METRICS_H_
#define GDX_ENGINE_METRICS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/strings.h"

namespace gdx {

/// Per-solve (and, accumulated, per-batch) engine metrics: wall time per
/// pipeline stage, chase work counters, and cache effectiveness. Benches
/// and the CLI `batch` subcommand report these; the BatchExecutor sums
/// them across scenarios.
struct Metrics {
  // Per-stage wall time, seconds.
  double chase_seconds = 0;      // s-t pattern chase + adapted egd chase
  double existence_seconds = 0;  // existence decision (search / SAT)
  double certain_seconds = 0;    // solution enumeration + intersection
  double minimize_seconds = 0;   // greedy core minimization
  double verify_seconds = 0;     // defensive final solution check
  double total_seconds = 0;      // whole Solve call

  // Chase / search work.
  size_t chase_triggers = 0;   // s-t tgd body matches fired
  size_t chase_merges = 0;     // adapted egd chase node merges
  size_t candidates_tried = 0; // witness-choice ranks decided, whether
                               // instantiated or pruned
  size_t candidates_pruned = 0;  // of those, ranks singleton nogoods pruned
  size_t solutions_enumerated = 0;

  // Delta chase work (ISSUE 9): rounds that joined rules, (rule, round)
  // skip events the reliance analysis saved, and reliance-graph strata.
  // Zero under ChasePolicy::kNaive and on chased-memo hits (the chase did
  // not run), like the chase counters above.
  size_t chase_delta_rounds = 0;
  size_t chase_skipped_rules = 0;
  size_t chase_strata = 0;

  // Cache effectiveness. Exact per-solve attribution (ISSUE 2 satellite):
  // every thread touching the cache on a solve's behalf — the caller and
  // all intra-solve workers — increments that solve's thread-local-routed
  // PerSolveCacheStats sink, so concurrent sibling solves never bleed into
  // each other's numbers and per-solve sums equal batch-wide deltas.
  uint64_t nre_cache_hits = 0;
  uint64_t nre_cache_misses = 0;
  uint64_t answer_cache_hits = 0;
  uint64_t answer_cache_misses = 0;
  uint64_t compile_cache_hits = 0;
  uint64_t compile_cache_misses = 0;
  // Chased-scenario memo traffic (ISSUE 5): a chase hit means the whole
  // s-t + egd chase stage was served from a compiled artifact — on such a
  // solve chase_triggers/chase_merges stay 0 (the chase did not run).
  uint64_t chase_cache_hits = 0;
  uint64_t chase_cache_misses = 0;

  // Warm-start effectiveness (ISSUE 4): the subset of the hits above that
  // were served from entries a snapshot restored (EngineCache::
  // LoadSnapshot) rather than computed in this process. A fully warm
  // re-run of a previously saved workload shows restored hits > 0 and
  // zero NRE/compile/chase misses (and zero chase triggers — ISSUE 5).
  uint64_t nre_cache_restored_hits = 0;
  uint64_t answer_cache_restored_hits = 0;
  uint64_t compile_cache_restored_hits = 0;
  uint64_t chase_cache_restored_hits = 0;

  size_t scenarios = 0;  // solves accumulated into this struct

  void Accumulate(const Metrics& other) {
    chase_seconds += other.chase_seconds;
    existence_seconds += other.existence_seconds;
    certain_seconds += other.certain_seconds;
    minimize_seconds += other.minimize_seconds;
    verify_seconds += other.verify_seconds;
    total_seconds += other.total_seconds;
    chase_triggers += other.chase_triggers;
    chase_merges += other.chase_merges;
    candidates_tried += other.candidates_tried;
    candidates_pruned += other.candidates_pruned;
    solutions_enumerated += other.solutions_enumerated;
    chase_delta_rounds += other.chase_delta_rounds;
    chase_skipped_rules += other.chase_skipped_rules;
    chase_strata += other.chase_strata;
    nre_cache_hits += other.nre_cache_hits;
    nre_cache_misses += other.nre_cache_misses;
    answer_cache_hits += other.answer_cache_hits;
    answer_cache_misses += other.answer_cache_misses;
    compile_cache_hits += other.compile_cache_hits;
    compile_cache_misses += other.compile_cache_misses;
    chase_cache_hits += other.chase_cache_hits;
    chase_cache_misses += other.chase_cache_misses;
    nre_cache_restored_hits += other.nre_cache_restored_hits;
    answer_cache_restored_hits += other.answer_cache_restored_hits;
    compile_cache_restored_hits += other.compile_cache_restored_hits;
    chase_cache_restored_hits += other.chase_cache_restored_hits;
    scenarios += other.scenarios;
  }

  uint64_t cache_hits() const {
    return nre_cache_hits + answer_cache_hits + compile_cache_hits +
           chase_cache_hits;
  }
  uint64_t cache_misses() const {
    return nre_cache_misses + answer_cache_misses + compile_cache_misses +
           chase_cache_misses;
  }
  uint64_t cache_restored_hits() const {
    return nre_cache_restored_hits + answer_cache_restored_hits +
           compile_cache_restored_hits + chase_cache_restored_hits;
  }

  /// Multi-line human-readable summary for CLI / bench output. Built
  /// incrementally (ISSUE 6 satellite): the old fixed 1024-byte snprintf
  /// buffer was one added counter away from silently clipping output CI
  /// greps for — StrAppendF grows the string to whatever the values need.
  std::string ToString() const {
    std::string out;
    out.reserve(512);
    StrAppendF(&out, "metrics {%zu solve(s)}\n", scenarios);
    StrAppendF(&out,
               "  wall: total=%.3fms chase=%.3fms existence=%.3fms "
               "certain=%.3fms minimize=%.3fms verify=%.3fms\n",
               total_seconds * 1e3, chase_seconds * 1e3,
               existence_seconds * 1e3, certain_seconds * 1e3,
               minimize_seconds * 1e3, verify_seconds * 1e3);
    StrAppendF(&out,
               "  work: triggers=%zu merges=%zu candidates=%zu "
               "solutions=%zu pruned=%zu\n",
               chase_triggers, chase_merges, candidates_tried,
               solutions_enumerated, candidates_pruned);
    StrAppendF(&out,
               "  delta-chase: rounds=%zu skipped-rules=%zu strata=%zu\n",
               chase_delta_rounds, chase_skipped_rules, chase_strata);
    StrAppendF(&out,
               "  cache: nre %llu hit / %llu miss, answers %llu hit / "
               "%llu miss, compile %llu hit / %llu miss, chase %llu hit / "
               "%llu miss\n",
               static_cast<unsigned long long>(nre_cache_hits),
               static_cast<unsigned long long>(nre_cache_misses),
               static_cast<unsigned long long>(answer_cache_hits),
               static_cast<unsigned long long>(answer_cache_misses),
               static_cast<unsigned long long>(compile_cache_hits),
               static_cast<unsigned long long>(compile_cache_misses),
               static_cast<unsigned long long>(chase_cache_hits),
               static_cast<unsigned long long>(chase_cache_misses));
    StrAppendF(&out,
               "  warm: restored-entry hits nre=%llu answers=%llu "
               "compile=%llu chase=%llu\n",
               static_cast<unsigned long long>(nre_cache_restored_hits),
               static_cast<unsigned long long>(answer_cache_restored_hits),
               static_cast<unsigned long long>(compile_cache_restored_hits),
               static_cast<unsigned long long>(chase_cache_restored_hits));
    return out;
  }
};

/// Scoped wall-clock accumulator: adds the elapsed seconds to `*slot` on
/// destruction. Usage:  { StageTimer t(&metrics.chase_seconds); ... }
class StageTimer {
 public:
  explicit StageTimer(double* slot)
      : slot_(slot), start_(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    *slot_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double* slot_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace gdx

#endif  // GDX_ENGINE_METRICS_H_
