// ISSUE 2 tests: intra-solve parallelism must never change results —
// byte-identical solutions, certain answers and existence verdicts at 1,
// 2 and 8 workers — the SAT cube deck must be thread-count invariant,
// per-solve cache counters must sum exactly to batch totals under
// concurrency, the LRU cap must bound the cache, and cancellation must
// turn a solve into a sound "unknown".
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel_search.h"
#include "common/rng.h"
#include "engine/batch_executor.h"
#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "reduction/sat_encoding.h"
#include "sat/gen.h"
#include "solver/existence.h"
#include "workload/flights.h"

namespace gdx {
namespace {

EngineOptions PaperOptions() {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  return options;
}

/// The scenario family the determinism contract is checked on: paper
/// examples (multiple constraint flavors) + generated flight workloads.
std::vector<Scenario> MakeScenarioSet() {
  std::vector<Scenario> set;
  set.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
  set.push_back(MakeExample22Scenario(FlightConstraintMode::kSameAs));
  set.push_back(MakeExample22Scenario(FlightConstraintMode::kNone));
  set.push_back(MakeExample52Scenario());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    FlightWorkloadParams params;
    params.seed = seed;
    params.num_cities = 4;
    params.num_flights = 5;
    params.num_hotels = 3;
    params.mode = seed % 2 == 0 ? FlightConstraintMode::kSameAs
                                : FlightConstraintMode::kEgd;
    set.push_back(MakeFlightScenario(params));
  }
  return set;
}

std::vector<std::string> SolveAllToStrings(size_t intra_threads) {
  EngineOptions options = PaperOptions();
  options.intra_solve_threads = intra_threads;
  // At 3 witnesses/edge the paper scenarios' choice spaces (3^7 = 2187
  // ranks for Example 2.2) clear parallel_min_ranks, so the fan-out
  // machinery genuinely engages here.
  ExchangeEngine engine(options);
  std::vector<Scenario> scenarios = MakeScenarioSet();
  std::vector<std::string> out;
  for (Scenario& s : scenarios) {
    Result<ExchangeOutcome> outcome = engine.Solve(s);
    out.push_back(outcome.ok() ? outcome->ToString(*s.universe, *s.alphabet)
                               : outcome.status().ToString());
  }
  return out;
}

/// Theorem 4.1 UNSAT instance: the bounded search must exhaust all 2^n
/// witness combinations — the embarrassingly parallel hot path. The
/// contradiction is the four binary clauses over x_{n-1} and x_n: unit
/// clauses would let the singleton nogoods decide the space without a
/// single candidate to fan out.
SatEncodedExchange MakeUnsatReduction(int n, Universe& universe) {
  Rng rng(77);
  CnfFormula f = RandomKSat(n - 1 > 2 ? n - 1 : 2, 2 * n, 3, rng);
  f.set_num_vars(n);
  f.AddClause({n - 1, n});
  f.AddClause({n - 1, -n});
  f.AddClause({-(n - 1), n});
  f.AddClause({-(n - 1), -n});
  Result<SatEncodedExchange> enc =
      EncodeSatToSetting(f, universe, ReductionMode::kEgd);
  EXPECT_TRUE(enc.ok());
  return std::move(enc).value();
}

ExistenceOptions ReductionOptions(ExistenceStrategy strategy,
                                  size_t threads, ThreadPool* pool) {
  ExistenceOptions options;
  options.strategy = strategy;
  options.instantiation.max_edges_per_witness = 1;
  options.instantiation.max_witnesses_per_edge = 2;
  options.intra_solve_threads = threads;
  options.intra_pool = pool;
  options.parallel_min_ranks = 2;  // engage even on small spaces
  options.parallel_chunk = 8;
  return options;
}

// --- Determinism across worker counts --------------------------------------

TEST(IntraSolveTest, SolveOutputsAreByteIdenticalAt1and2and8Workers) {
  std::vector<std::string> at1 = SolveAllToStrings(1);
  std::vector<std::string> at2 = SolveAllToStrings(2);
  std::vector<std::string> at8 = SolveAllToStrings(8);
  ASSERT_EQ(at1.size(), at2.size());
  ASSERT_EQ(at1.size(), at8.size());
  for (size_t i = 0; i < at1.size(); ++i) {
    EXPECT_EQ(at2[i], at1[i]) << "scenario " << i << " at 2 workers";
    EXPECT_EQ(at8[i], at1[i]) << "scenario " << i << " at 8 workers";
  }
}

TEST(IntraSolveTest, BoundedSearchExhaustionIsThreadCountInvariant) {
  AutomatonNreEvaluator eval;
  ThreadPool pool(4);
  ExistenceReport baseline;
  for (size_t threads : {1u, 2u, 4u}) {
    Universe universe;
    SatEncodedExchange enc = MakeUnsatReduction(7, universe);
    ExistenceOptions options = ReductionOptions(
        ExistenceStrategy::kBoundedSearch, threads, &pool);
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc.setting, *enc.instance,
                                         universe);
    EXPECT_EQ(report.verdict, ExistenceVerdict::kNo) << report.note;
    EXPECT_EQ(report.candidates_tried, size_t{1} << 7)
        << "complete exhaustion of the 2^7 choice space";
    EXPECT_EQ(report.candidates_pruned, 0u)
        << "every candidate must be instantiated, or nothing fans out";
    if (threads == 1) {
      baseline = report;
    } else {
      EXPECT_EQ(report.note, baseline.note);
      EXPECT_EQ(report.candidates_tried, baseline.candidates_tried);
    }
  }
}

TEST(IntraSolveTest, BoundedSearchWitnessIsThreadCountInvariant) {
  // Satisfiable instance: all worker counts must return the *same*
  // minimal-rank witness, byte for byte (nulls included).
  AutomatonNreEvaluator eval;
  ThreadPool pool(4);
  std::string baseline;
  size_t baseline_tried = 0;
  for (size_t threads : {1u, 4u}) {
    Universe universe;
    Rng rng(99);
    CnfFormula f = PlantedKSat(7, 20, 3, rng);
    Result<SatEncodedExchange> enc =
        EncodeSatToSetting(f, universe, ReductionMode::kEgd);
    ASSERT_TRUE(enc.ok());
    ExistenceOptions options = ReductionOptions(
        ExistenceStrategy::kBoundedSearch, threads, &pool);
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    ASSERT_EQ(report.verdict, ExistenceVerdict::kYes) << report.note;
    ASSERT_TRUE(report.witness.has_value());
    std::string rendered =
        report.witness->ToString(universe, *enc->alphabet);
    if (threads == 1) {
      baseline = rendered;
      baseline_tried = report.candidates_tried;
    } else {
      EXPECT_EQ(rendered, baseline)
          << "parallel search must return the sequential first hit";
      EXPECT_EQ(report.candidates_tried, baseline_tried);
    }
  }
}

TEST(IntraSolveTest, SatCubeDeckIsThreadCountInvariant) {
  AutomatonNreEvaluator eval;
  ThreadPool pool(4);
  std::string baseline;
  size_t baseline_tried = 0;
  for (size_t threads : {1u, 4u}) {
    Universe universe;
    Rng rng(123);
    CnfFormula f = PlantedKSat(12, 40, 3, rng);
    Result<SatEncodedExchange> enc =
        EncodeSatToSetting(f, universe, ReductionMode::kEgd);
    ASSERT_TRUE(enc.ok());
    ExistenceOptions options = ReductionOptions(
        ExistenceStrategy::kSatBacked, threads, &pool);
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    ASSERT_EQ(report.verdict, ExistenceVerdict::kYes) << report.note;
    ASSERT_TRUE(report.witness.has_value());
    std::string rendered =
        report.witness->ToString(universe, *enc->alphabet);
    if (threads == 1) {
      baseline = rendered;
      baseline_tried = report.candidates_tried;
    } else {
      EXPECT_EQ(rendered, baseline)
          << "the accepted model must come from the minimal SAT cube";
      EXPECT_EQ(report.candidates_tried, baseline_tried)
          << "deterministic decision accounting";
    }
  }
}

TEST(IntraSolveTest, SatDecisionBudgetDisablesCubesAndStaysSound) {
  // A nonzero budget must remain a whole-call latency bound (no per-cube
  // multiplication) and exhaust into a sound kUnknown, never a wrong kNo.
  AutomatonNreEvaluator eval;
  Universe universe;
  Rng rng(321);
  CnfFormula f = RandomKSat(16, 68, 3, rng);
  Result<SatEncodedExchange> enc =
      EncodeSatToSetting(f, universe, ReductionMode::kEgd);
  ASSERT_TRUE(enc.ok());
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kSatBacked;
  options.sat_max_decisions = 1;
  ExistenceReport report = ExistenceSolver(&eval, options)
                               .Decide(enc->setting, *enc->instance,
                                       universe);
  if (report.verdict != ExistenceVerdict::kYes) {
    EXPECT_EQ(report.verdict, ExistenceVerdict::kUnknown) << report.note;
    EXPECT_TRUE(report.budget_exhausted);
  }
}

TEST(IntraSolveTest, EnumerationIsThreadCountInvariant) {
  AutomatonNreEvaluator eval;
  ThreadPool pool(4);
  std::vector<std::string> baseline;
  for (size_t threads : {1u, 2u, 8u}) {
    Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
    ExistenceOptions options;
    options.instantiation.max_witnesses_per_edge = 3;
    options.intra_solve_threads = threads;
    options.intra_pool = &pool;
    options.parallel_min_ranks = 2;
    options.parallel_chunk = 4;
    std::vector<Graph> solutions =
        ExistenceSolver(&eval, options)
            .EnumerateSolutions(s.setting, *s.instance, *s.universe, 12);
    std::vector<std::string> rendered;
    for (const Graph& g : solutions) {
      rendered.push_back(g.Signature(*s.universe, *s.alphabet));
    }
    if (threads == 1) {
      baseline = rendered;
      EXPECT_GT(baseline.size(), 1u) << "scenario must have >1 solution";
    } else {
      EXPECT_EQ(rendered, baseline) << "at " << threads << " workers";
    }
  }
}

// --- Per-solve cache attribution under concurrency --------------------------

TEST(IntraSolveTest, PerSolveCacheCountersSumToBatchTotals) {
  // Concurrent batch + intra-solve workers: the thread-local sinks must
  // attribute every cache touch to exactly one solve, so per-solve sums
  // reproduce the batch-wide deltas.
  BatchOptions options;
  options.num_threads = 4;
  options.engine = PaperOptions();
  options.engine.intra_solve_threads = 2;
  std::vector<Scenario> batch;
  for (int round = 0; round < 3; ++round) {
    for (Scenario& s : MakeScenarioSet()) batch.push_back(std::move(s));
  }
  BatchReport report = BatchExecutor(options).SolveAll(batch);
  ASSERT_EQ(report.errors, 0u);

  uint64_t nre_hits = 0, nre_misses = 0, answer_hits = 0, answer_misses = 0;
  uint64_t compile_hits = 0, compile_misses = 0;
  uint64_t chase_hits = 0, chase_misses = 0;
  for (const Result<ExchangeOutcome>& r : report.outcomes) {
    ASSERT_TRUE(r.ok());
    nre_hits += r->metrics.nre_cache_hits;
    nre_misses += r->metrics.nre_cache_misses;
    answer_hits += r->metrics.answer_cache_hits;
    answer_misses += r->metrics.answer_cache_misses;
    compile_hits += r->metrics.compile_cache_hits;
    compile_misses += r->metrics.compile_cache_misses;
    chase_hits += r->metrics.chase_cache_hits;
    chase_misses += r->metrics.chase_cache_misses;
  }
  EXPECT_EQ(nre_hits, report.total.nre_cache_hits);
  EXPECT_EQ(nre_misses, report.total.nre_cache_misses);
  EXPECT_EQ(answer_hits, report.total.answer_cache_hits);
  EXPECT_EQ(answer_misses, report.total.answer_cache_misses);
  EXPECT_EQ(compile_hits, report.total.compile_cache_hits);
  EXPECT_EQ(compile_misses, report.total.compile_cache_misses);
  EXPECT_EQ(chase_hits, report.total.chase_cache_hits);
  EXPECT_EQ(chase_misses, report.total.chase_cache_misses);
  EXPECT_GT(answer_hits + answer_misses, 0u)
      << "the batch must touch the answer memo";
  EXPECT_GT(compile_hits + compile_misses, 0u)
      << "the batch must touch the compiled-automaton memo";
  EXPECT_GT(chase_hits, 0u)
      << "the repeated batch must serve chases from the chased memo";
  EXPECT_GT(chase_misses, 0u);
}

// --- Adaptive intra-solve scheduling (ISSUE 5 satellite) --------------------

TEST(IntraSolveTest, AdaptiveWorkerCountScalesWithChoiceSpace) {
  ThreadPool pool(7);
  ParallelSearchOptions options;
  options.pool = &pool;
  options.max_workers = 8;
  options.min_parallel_ranks = 128;
  options.adaptive_ranks_per_worker = 1000;
  ParallelSearch search(options);
  EXPECT_EQ(search.NumWorkers(100), 1u) << "below min_parallel_ranks";
  EXPECT_EQ(search.NumWorkers(999), 1u) << "one worker's worth of ranks";
  EXPECT_EQ(search.NumWorkers(2000), 2u);
  EXPECT_EQ(search.NumWorkers(100000), 8u) << "capped by max_workers";
  // The explicit knob wins: adaptive off restores the static cap.
  options.adaptive_ranks_per_worker = 0;
  EXPECT_EQ(ParallelSearch(options).NumWorkers(999), 8u);
}

TEST(IntraSolveTest, AdaptiveDefaultResolvesAndStaysByteIdentical) {
  // The engine default is the adaptive sentinel; it resolves to a
  // hardware-sized pool cap, ToExistenceOptions flags the solver, and an
  // explicit worker count still wins.
  EngineOptions adaptive = PaperOptions();
  ASSERT_EQ(adaptive.intra_solve_threads,
            EngineOptions::kIntraSolveAdaptive);
  ExistenceOptions eopt = adaptive.ToExistenceOptions();
  EXPECT_TRUE(eopt.adaptive_intra);
  EXPECT_EQ(eopt.intra_solve_threads, 0u) << "pool size + 1, not a sentinel";
  EngineOptions explicit_three = PaperOptions();
  explicit_three.intra_solve_threads = 3;
  EXPECT_FALSE(explicit_three.ToExistenceOptions().adaptive_intra);
  EXPECT_EQ(explicit_three.ToExistenceOptions().intra_solve_threads, 3u);

  ExchangeEngine engine(adaptive);
  EXPECT_EQ(engine.intra_solve_threads(), ThreadPool::DefaultThreads());

  // Outcomes under the adaptive default are byte-identical to explicit
  // sequential solves (worker-count invariance).
  std::vector<Scenario> adaptive_set = MakeScenarioSet();
  std::vector<std::string> adaptive_out;
  for (Scenario& s : adaptive_set) {
    Result<ExchangeOutcome> o = engine.Solve(s);
    ASSERT_TRUE(o.ok());
    adaptive_out.push_back(o->ToString(*s.universe, *s.alphabet));
  }
  std::vector<std::string> sequential_out = SolveAllToStrings(1);
  ASSERT_EQ(adaptive_out.size(), sequential_out.size());
  for (size_t i = 0; i < adaptive_out.size(); ++i) {
    EXPECT_EQ(adaptive_out[i], sequential_out[i]) << "scenario " << i;
  }
}

// --- LRU cap ----------------------------------------------------------------

TEST(IntraSolveTest, LruCapBoundsNreMemo) {
  EngineCacheOptions options;
  options.max_nre_entries = 4;
  options.max_answer_keys = 2;
  options.num_shards = 1;  // exact global LRU (the behavior under test)
  EngineCache cache(options);
  for (int i = 0; i < 10; ++i) {
    cache.StoreNre("key" + std::to_string(i), BinaryRelation{});
  }
  CacheSizes sizes = cache.sizes();
  EXPECT_EQ(sizes.nre_entries, 4u);
  EXPECT_EQ(cache.stats().nre_evictions, 6u);

  // LRU order: touching key6 keeps it alive past the next eviction.
  BinaryRelation out;
  EXPECT_TRUE(cache.LookupNre("key6", &out));
  cache.StoreNre("fresh", BinaryRelation{});
  EXPECT_TRUE(cache.LookupNre("key6", &out)) << "recently used: retained";
  EXPECT_FALSE(cache.LookupNre("key7", &out)) << "LRU victim: evicted";
}

TEST(IntraSolveTest, LruCapBoundsAnswerMemo) {
  EngineCacheOptions options;
  options.max_nre_entries = 4;
  options.max_answer_keys = 2;
  options.num_shards = 1;  // exact global LRU (the behavior under test)
  EngineCache cache(options);
  Graph g;
  for (int i = 0; i < 5; ++i) {
    cache.StoreAnswers("query" + std::to_string(i), g, {});
  }
  CacheSizes sizes = cache.sizes();
  EXPECT_EQ(sizes.answer_keys, 2u);
  EXPECT_LE(sizes.answer_entries, 2u * 8u);
  EXPECT_EQ(cache.stats().answer_evictions, 3u);
}

TEST(IntraSolveTest, EngineHonorsCacheCapAndStaysCorrect) {
  EngineOptions tiny = PaperOptions();
  tiny.cache.max_nre_entries = 8;
  tiny.cache.max_answer_keys = 2;
  ExchangeEngine capped(tiny);
  ExchangeEngine unbounded(PaperOptions());
  for (int round = 0; round < 3; ++round) {
    Scenario s1 = MakeExample22Scenario(FlightConstraintMode::kEgd);
    Scenario s2 = MakeExample22Scenario(FlightConstraintMode::kEgd);
    Result<ExchangeOutcome> o1 = capped.Solve(s1);
    Result<ExchangeOutcome> o2 = unbounded.Solve(s2);
    ASSERT_TRUE(o1.ok());
    ASSERT_TRUE(o2.ok());
    EXPECT_EQ(o1->ToString(*s1.universe, *s1.alphabet),
              o2->ToString(*s2.universe, *s2.alphabet))
        << "eviction must never change answers";
  }
  CacheSizes sizes = capped.cache().sizes();
  EXPECT_LE(sizes.nre_entries, 8u);
  EXPECT_LE(sizes.answer_keys, 2u);
}

// --- Cancellation -----------------------------------------------------------

TEST(IntraSolveTest, CancelledSolveReportsUnknown) {
  EngineOptions options = PaperOptions();
  options.existence_policy = ExistencePolicy::kBoundedSearch;
  options.intra_solve_threads = 2;
  ExchangeEngine engine(options);
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  CancellationToken token;
  token.RequestStop();  // cancelled before the search starts
  Result<ExchangeOutcome> outcome = engine.Solve(s, &token);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->existence.verdict, ExistenceVerdict::kUnknown);
  EXPECT_EQ(outcome->existence.note, "search cancelled");
  EXPECT_FALSE(outcome->solution.has_value());
  // Soundness: a cancelled solve must not certify any tuple — a truncated
  // enumeration would over-approximate the certain answers.
  if (outcome->certain.has_value()) {
    EXPECT_TRUE(outcome->certain->tuples.empty());
    EXPECT_FALSE(outcome->certain->no_solution);
  }
}

}  // namespace
}  // namespace gdx
