// E4 / Figure 4 + Theorem 4.1: the 3SAT reduction. Reproduces the ρ0
// artifact (the valuation solution of Figure 4) and demonstrates the
// NP-hardness *shape*: the complete bounded search scales exponentially in
// the number of variables while the DPLL-backed exact solver prunes.
#include "bench_util.h"

#include "common/thread_pool.h"
#include "exchange/solution_check.h"
#include "reduction/sat_encoding.h"
#include "sat/dpll.h"
#include "sat/gen.h"
#include "solver/existence.h"

namespace gdx {
namespace {

AutomatonNreEvaluator eval;

void PrintRepro() {
  Universe universe;
  Result<SatEncodedExchange> enc =
      EncodeSatToSetting(Rho0(), universe, ReductionMode::kEgd);
  std::printf("Theorem 4.1 on rho0 = (x1|!x2|x3)&(!x1|x3|!x4):\n");
  std::printf("  |Sigma| = %zu (paper: a + t1..t4 + f1..f4 = 9), egds = %zu "
              "(4 type-* + 2 type-**)\n",
              enc->alphabet->size(), enc->setting.egds.size());
  // The Figure 4 solution: v(x1)=v(x2)=true, v(x3)=v(x4)=false.
  std::vector<bool> v(5, false);
  v[1] = true;
  v[2] = true;
  Graph g = BuildValuationGraph(*enc, v);
  std::printf("  Figure 4 graph (a edge + loops t1,t2,f3,f4): %zu nodes, "
              "%zu edges; solution: %s (paper: yes)\n",
              g.num_nodes(), g.num_edges(),
              IsSolution(enc->setting, *enc->instance, g, eval, universe)
                  ? "yes"
                  : "NO");
  for (ExistenceStrategy strategy : {ExistenceStrategy::kSatBacked,
                                     ExistenceStrategy::kBoundedSearch}) {
    ExistenceOptions options;
    options.strategy = strategy;
    options.instantiation.max_edges_per_witness = 1;
    options.instantiation.max_witnesses_per_edge = 2;
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    std::printf("  existence via %s: %s after %zu candidate(s)\n",
                strategy == ExistenceStrategy::kSatBacked ? "SAT   "
                                                          : "brute ",
                report.verdict == ExistenceVerdict::kYes ? "YES" : "no",
                report.candidates_tried);
  }
}

/// Builds an encoded exchange for a random 3CNF; satisfiable controls
/// whether a planted (SAT) or contradiction-pinned (UNSAT) formula is used.
CnfFormula MakeFormula(int n, bool satisfiable, uint64_t seed) {
  Rng rng(seed);
  if (satisfiable) return PlantedKSat(n, static_cast<int>(n * 4.26), 3, rng);
  CnfFormula f = RandomKSat(n - 1 > 2 ? n - 1 : 2, 2 * n, 3, rng);
  // All four binary clauses over variables n-1 and n: guaranteed
  // unsatisfiable. Unit clauses would be too, but each makes one witness
  // fail on its own, and the search's singleton nogoods would then decide
  // the whole space without instantiating a candidate.
  f.set_num_vars(n);
  f.AddClause({n - 1, n});
  f.AddClause({n - 1, -n});
  f.AddClause({-(n - 1), n});
  f.AddClause({-(n - 1), -n});
  return f;
}

/// The complete bounded search: candidate space is 2^n witness choices —
/// the Theorem 4.1 hardness made visible. Expect ~2x time per +1 variable
/// on UNSAT inputs (full exhaustion).
void BM_BoundedExistenceUnsat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Universe universe;
  Result<SatEncodedExchange> enc = EncodeSatToSetting(
      MakeFormula(n, /*satisfiable=*/false, 77), universe,
      ReductionMode::kEgd);
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kBoundedSearch;
  options.instantiation.max_edges_per_witness = 1;
  options.instantiation.max_witnesses_per_edge = 2;
  size_t candidates = 0;
  for (auto _ : state) {
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    benchmark::DoNotOptimize(report);
    candidates = report.candidates_tried;
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}
BENCHMARK(BM_BoundedExistenceUnsat)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

/// ISSUE 2 tentpole: the same complete exhaustion with the witness-choice
/// odometer fanned over the work-stealing pool. Args = {n, workers}. The
/// verdict, note and candidate count are byte-identical across worker
/// counts (asserted in intra_solve_test); on an M-core machine the
/// 2^n-candidate UNSAT scan approaches M-fold speedup since every
/// candidate is independent. Compare {12,1} vs {12,4} for the headline
/// ratio (expect >= 1.5x at 4 workers on >= 4 cores).
void BM_BoundedExistenceUnsatIntra(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const size_t workers = static_cast<size_t>(state.range(1));
  Universe universe;
  Result<SatEncodedExchange> enc = EncodeSatToSetting(
      MakeFormula(n, /*satisfiable=*/false, 77), universe,
      ReductionMode::kEgd);
  ThreadPool pool(workers > 1 ? workers - 1 : 1);
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kBoundedSearch;
  options.instantiation.max_edges_per_witness = 1;
  options.instantiation.max_witnesses_per_edge = 2;
  options.intra_solve_threads = workers;
  options.intra_pool = workers > 1 ? &pool : nullptr;
  options.parallel_min_ranks = 2;
  size_t candidates = 0;
  for (auto _ : state) {
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    benchmark::DoNotOptimize(report);
    candidates = report.candidates_tried;
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_BoundedExistenceUnsatIntra)
    ->Args({10, 1})->Args({10, 2})->Args({10, 4})
    ->Args({12, 1})->Args({12, 2})->Args({12, 4})
    ->Unit(benchmark::kMillisecond)->Iterations(3)->UseRealTime();

/// The DPLL-backed exact solver on the same UNSAT family: near-linear in
/// the encoding size here (unit propagation closes it).
void BM_SatBackedExistenceUnsat(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Universe universe;
  Result<SatEncodedExchange> enc = EncodeSatToSetting(
      MakeFormula(n, /*satisfiable=*/false, 77), universe,
      ReductionMode::kEgd);
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kSatBacked;
  for (auto _ : state) {
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SatBackedExistenceUnsat)
    ->Arg(4)->Arg(6)->Arg(8)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);

/// Cube-and-conquer SAT existence (ISSUE 2): 2^4 per-worker DPLL cubes on
/// the phase-transition-hard random family. Args = {n, workers}.
void BM_SatBackedExistenceCubesIntra(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const size_t workers = static_cast<size_t>(state.range(1));
  Universe universe;
  Rng rng(55);
  Result<SatEncodedExchange> enc = EncodeSatToSetting(
      RandomKSat(n, static_cast<int>(n * 4.26), 3, rng), universe,
      ReductionMode::kEgd);
  ThreadPool pool(workers > 1 ? workers - 1 : 1);
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kSatBacked;
  options.intra_solve_threads = workers;
  options.intra_pool = workers > 1 ? &pool : nullptr;
  for (auto _ : state) {
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    benchmark::DoNotOptimize(report);
  }
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_SatBackedExistenceCubesIntra)
    ->Args({18, 1})->Args({18, 2})->Args({18, 4})
    ->Args({22, 1})->Args({22, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Satisfiable (planted) family: both solvers find a witness; the bounded
/// search stops early once a solution verifies.
void BM_SatBackedExistencePlanted(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Universe universe;
  Result<SatEncodedExchange> enc = EncodeSatToSetting(
      MakeFormula(n, /*satisfiable=*/true, 99), universe,
      ReductionMode::kEgd);
  ExistenceOptions options;
  options.strategy = ExistenceStrategy::kSatBacked;
  for (auto _ : state) {
    ExistenceReport report = ExistenceSolver(&eval, options)
                                 .Decide(enc->setting, *enc->instance,
                                         universe);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SatBackedExistencePlanted)
    ->Arg(6)->Arg(10)->Arg(14)->Arg(18)
    ->Unit(benchmark::kMillisecond);

/// Raw DPLL on phase-transition random 3SAT (m = 4.26 n): the substrate's
/// own hardness curve, for reference.
void BM_DpllPhaseTransition(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(123);
  CnfFormula f = RandomKSat(n, static_cast<int>(n * 4.26), 3, rng);
  DpllSolver solver;
  for (auto _ : state) {
    SatResult r = solver.Solve(f);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DpllPhaseTransition)
    ->Arg(10)->Arg(14)->Arg(18)->Arg(22)->Arg(26)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gdx

GDX_BENCH_MAIN(gdx::PrintRepro)
