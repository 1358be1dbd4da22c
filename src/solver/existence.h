#ifndef GDX_SOLVER_EXISTENCE_H_
#define GDX_SOLVER_EXISTENCE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase_compiler.h"
#include "chase/egd_chase.h"
#include "common/parallel_search.h"
#include "common/universe.h"
#include "exchange/setting.h"
#include "graph/graph.h"
#include "graph/nre_eval.h"
#include "pattern/witness.h"
#include "relational/instance.h"

namespace gdx {

/// Decision strategies for the existence-of-solutions problem (paper §4).
enum class ExistenceStrategy {
  /// Adapted chase (§5): failure is a sound "no"; success attempts one
  /// canonical instantiation — may return kUnknown.
  kChaseRefute,
  /// Complete enumeration over witness-choice combinations of the chased
  /// pattern (+ graph-level egd repair), skipping every combination that
  /// uses a witness the egds reject on its own. Exponential — this is the
  /// search space whose size Theorem 4.1's NP-hardness speaks to.
  kBoundedSearch,
  /// Exact CNF encoding of the flat fragment solved by DPLL (fast path;
  /// INVALID_ARGUMENT-fallback to bounded search outside the fragment).
  kSatBacked,
  /// Picks per setting: no constraints / sameAs-only -> constructive yes;
  /// flat -> SAT-backed; otherwise bounded search.
  kAuto,
};

enum class ExistenceVerdict { kYes, kNo, kUnknown };

/// Outcome of an existence decision.
struct ExistenceReport {
  ExistenceVerdict verdict = ExistenceVerdict::kUnknown;
  /// A concrete solution when verdict == kYes.
  std::optional<Graph> witness;
  std::string note;

  /// Bounded search: witness-choice ranks decided, whether instantiated or
  /// pruned — the winner's rank + 1, or min(combinations, max_candidates)
  /// on exhaustion. SAT route: DPLL decisions + 1.
  size_t candidates_tried = 0;
  /// The part of candidates_tried the singleton nogoods decided without
  /// instantiating: ranks below the stop point that use a rejected witness.
  size_t candidates_pruned = 0;
  /// True if the search could not cover the whole combination space —
  /// the candidate budget ran out, or a pattern edge has no witness within
  /// the witness budget (verdict is then kUnknown, not kNo).
  bool budget_exhausted = false;
  /// True if a "no" came from the adapted chase's constant-clash failure.
  bool refuted_by_chase = false;
};

/// Tuning knobs for the existence solver.
struct ExistenceOptions {
  ExistenceStrategy strategy = ExistenceStrategy::kAuto;
  InstantiationOptions instantiation;
  /// Max witness-choice combinations explored by the bounded search.
  size_t max_candidates = 1u << 20;
  size_t target_tgd_max_rounds = 64;
  /// Deduplicate enumerated solutions up to null renaming (isomorphism) in
  /// EnumerateSolutions — distinct nulls from different instantiations
  /// otherwise count the same shape twice.
  bool dedup_isomorphic = true;

  // --- Intra-solve parallelism (ISSUE 2 tentpole) -------------------------
  //
  // The witness-choice odometer (bounded search + solution enumeration) and
  // the SAT cube deck fan out over a borrowed work-stealing ThreadPool.
  // Results are invariant under the worker count — byte-identical verdicts,
  // witnesses, enumerated solutions and certain answers at 1 and N threads
  // — because every candidate is evaluated against a rolled-back universe
  // copy and winners are merged in deterministic rank order.

  /// Worker count, *including* the calling thread. 1 = sequential
  /// (default); 0 = intra_pool size + 1. More than 1 requires intra_pool.
  size_t intra_solve_threads = 1;
  /// Pool the extra workers run on (borrowed, not owned). Typically the
  /// ExchangeEngine's intra-solve pool.
  ThreadPool* intra_pool = nullptr;
  /// Odometer ranks per work unit, and the smallest choice space worth
  /// fanning out at all.
  size_t parallel_chunk = 64;
  size_t parallel_min_ranks = 128;
  /// Adaptive intra-solve scheduling (ISSUE 5 satellite): when set, the
  /// witness-choice searches derive their worker count from the choice
  /// space — ceil(NumCombinations / adaptive_ranks_per_worker), capped at
  /// intra_solve_threads — so small spaces run sequentially (no pool
  /// overhead) and only large ones fan wide. An explicit worker count
  /// (adaptive_intra == false, the default here) always wins. The SAT
  /// cube deck is exempt: each cube is a whole DPLL call, always worth a
  /// worker. Worker-count invariance makes this a pure wall-time knob.
  bool adaptive_intra = false;
  size_t adaptive_ranks_per_worker = 1024;
  /// Cube-and-conquer width of the SAT-backed path: the first
  /// sat_cube_vars CNF variables are pinned to all 2^k polarities, one
  /// independent (per-worker) DPLL instance per cube. 0 — or a formula
  /// with fewer than 2*k variables, or a nonzero DPLL decision budget
  /// (per-cube budgets would multiply the intended latency bound) — means
  /// a single plain DPLL call. The cube deck depends only on the formula
  /// and these options, never on the worker count.
  size_t sat_cube_vars = 4;
  /// DPLL decision budget for the SAT-backed path (0 = unlimited).
  /// Exceeding it yields kUnknown with budget_exhausted. A nonzero budget
  /// disables the cube deck so it stays a whole-call latency bound.
  size_t sat_max_decisions = 0;
  /// Egd-repair policy of RepairAndVerify's candidate repairs (ISSUE 10
  /// tentpole part 1). The default component-parallel policy fans each
  /// repair round's congruence components over intra_pool (when set) and
  /// is byte-identical to kDeferredRounds at any worker count; the
  /// sequential policies remain as differential references.
  EgdChasePolicy egd_policy = EgdChasePolicy::kParallelComponents;
  /// Telemetry sink for component-parallel repair rounds (engine.egd.*).
  /// Borrowed; nullptr disables recording.
  EgdRepairStatsSink* egd_stats = nullptr;
  /// Optional cooperative hard abort: when it fires the decision returns
  /// kUnknown ("search cancelled") instead of a complete answer.
  const CancellationToken* cancel = nullptr;
  /// Wraps each worker's whole run — the engine installs its thread-local
  /// per-solve metric sink here. Must invoke the passed body exactly once.
  std::function<void(size_t worker, const std::function<void()>& body)>
      worker_scope;
};

/// Decides whether Sol_Ω(I) is non-empty. Verdicts are sound: kYes comes
/// with a verified witness, kNo with either a chase refutation or an
/// exhausted *complete* enumeration, and anything uncertain is kUnknown
/// (consistent with the paper's NP-hardness: no general tractable
/// procedure exists).
class ExistenceSolver {
 public:
  explicit ExistenceSolver(const NreEvaluator* eval,
                           ExistenceOptions options = {})
      : eval_(eval), options_(options) {}

  /// `chased` (borrowed, optional): a pre-compiled chase artifact for
  /// exactly these (setting, source) inputs — the engine passes its stage-1
  /// ChasedScenario so the decision stages replay it instead of re-running
  /// the s-t + egd chase. Results are byte-identical with and without it
  /// (ReplayChase reproduces the re-chase exactly); nullptr = chase fresh.
  ExistenceReport Decide(const Setting& setting, const Instance& source,
                         Universe& universe,
                         const ChasedScenario* chased) const;
  ExistenceReport Decide(const Setting& setting, const Instance& source,
                         Universe& universe) const {
    return Decide(setting, source, universe, nullptr);
  }

  /// Enumerates up to `max_solutions` distinct verified solutions (used by
  /// the certain-answer solver), in deterministic rank order regardless of
  /// the worker count. Solutions are deduplicated by signature (and
  /// isomorphism when dedup_isomorphic). The returned graphs' nulls are
  /// search-local: they are not registered in `universe`. If the
  /// cancellation token fires mid-scan the result is an arbitrary prefix —
  /// callers intersecting over it for certain answers must check the token
  /// and fall back to the sound empty answer set. `chased` as in Decide.
  std::vector<Graph> EnumerateSolutions(const Setting& setting,
                                        const Instance& source,
                                        Universe& universe,
                                        size_t max_solutions,
                                        const ChasedScenario* chased) const;
  std::vector<Graph> EnumerateSolutions(const Setting& setting,
                                        const Instance& source,
                                        Universe& universe,
                                        size_t max_solutions) const {
    return EnumerateSolutions(setting, source, universe, max_solutions,
                              nullptr);
  }

 private:
  ExistenceReport DecideChaseRefute(const Setting& setting,
                                    const Instance& source,
                                    Universe& universe,
                                    const ChasedScenario* chased) const;
  ExistenceReport DecideBoundedSearch(const Setting& setting,
                                      const Instance& source,
                                      Universe& universe,
                                      const ChasedScenario* chased) const;
  /// Sets *searched (when non-null) if the setting is not flat and the
  /// bounded search decided it instead.
  ExistenceReport DecideSatBacked(const Setting& setting,
                                  const Instance& source,
                                  Universe& universe,
                                  const ChasedScenario* chased,
                                  bool* searched) const;

  /// Completes a candidate graph (egd repair, target tgds, sameAs) and
  /// verifies it; returns the verified solution or nullopt. Thread-safe
  /// for distinct `universe` arguments (workers pass private copies).
  std::optional<Graph> RepairAndVerify(Graph candidate,
                                       const Setting& setting,
                                       const Instance& source,
                                       Universe& universe) const;

  /// ParallelSearchOptions assembled from this solver's intra-solve knobs.
  ParallelSearchOptions SearchOptions(size_t chunk_size,
                                      size_t min_parallel_ranks) const;
  bool Cancelled() const {
    return options_.cancel != nullptr && options_.cancel->stop_requested();
  }

  const NreEvaluator* eval_;
  ExistenceOptions options_;
};

}  // namespace gdx

#endif  // GDX_SOLVER_EXISTENCE_H_
