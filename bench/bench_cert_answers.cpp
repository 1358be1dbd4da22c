// E8 / Example 2.2 certain answers + Corollaries 4.2/4.4: reproduces
//   cert_Ω(Q,I)  = {(c1,c1),(c1,c3),(c3,c1),(c3,c3)}
//   cert_Ω′(Q,I) = {(c1,c1),(c3,c3)}
// and the coNP-shaped membership check on the Theorem 4.1 family.
// Timing: enumeration-based certain answers vs the pattern-based
// under-approximation (ablation), and IsCertain on the reduction family.
#include "bench_util.h"

#include "chase/pattern_chase.h"
#include "engine/exchange_engine.h"
#include "reduction/sat_encoding.h"
#include "sat/gen.h"
#include "solver/certain.h"
#include "workload/flights.h"

namespace gdx {
namespace {

AutomatonNreEvaluator eval;

void PrintAnswers(const Scenario& s, const CertainAnswerResult& r) {
  std::printf("  { ");
  for (const auto& t : r.tuples) {
    std::printf("(%s,%s) ", s.universe->NameOf(t[0]).c_str(),
                s.universe->NameOf(t[1]).c_str());
  }
  std::printf("}  [%zu solutions intersected]\n", r.solutions_considered);
}

void PrintRepro() {
  CertainAnswerOptions options;
  options.existence.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 12;
  CertainAnswerSolver solver(&eval, options);

  Scenario omega = MakeExample22Scenario(FlightConstraintMode::kEgd);
  std::printf("cert_Omega(Q, I)   (paper: (c1,c1) (c1,c3) (c3,c1) "
              "(c3,c3)):\n");
  PrintAnswers(omega, solver.Compute(omega.setting, *omega.instance,
                                     *omega.query, *omega.universe));

  Scenario prime = MakeExample22Scenario(FlightConstraintMode::kSameAs);
  std::printf("cert_Omega'(Q, I)  (paper: (c1,c1) (c3,c3)):\n");
  PrintAnswers(prime, solver.Compute(prime.setting, *prime.instance,
                                     *prime.query, *prime.universe));

  // Corollary 4.2 membership on rho0 (satisfiable -> not certain).
  Universe universe;
  Result<SatEncodedExchange> enc =
      EncodeSatToSetting(Rho0(), universe, ReductionMode::kEgd);
  CnreQuery query;
  VarId x1 = query.InternVar("x1");
  VarId x2 = query.InternVar("x2");
  query.AddAtom(Term::Var(x1), Corollary42Query(*enc), Term::Var(x2));
  query.SetHead({x1, x2});
  bool certain = CertainAnswerSolver(&eval).IsCertain(
      enc->setting, *enc->instance, query, {enc->c1, enc->c2}, universe);
  std::printf("Cor 4.2: (c1,c2) in cert(a.a) for satisfiable rho0: %s "
              "(paper: no — certain iff rho unsatisfiable)\n",
              certain ? "YES (bug)" : "no");
}

void BM_CertainAnswersEgd(benchmark::State& state) {
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  CertainAnswerOptions options;
  options.existence.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = static_cast<size_t>(state.range(0));
  CertainAnswerSolver solver(&eval, options);
  size_t tuples = 0;
  for (auto _ : state) {
    CertainAnswerResult r =
        solver.Compute(s.setting, *s.instance, *s.query, *s.universe);
    benchmark::DoNotOptimize(r);
    tuples = r.tuples.size();
  }
  state.counters["certain_tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_CertainAnswersEgd)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_CertainAnswersSameAs(benchmark::State& state) {
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kSameAs);
  CertainAnswerOptions options;
  options.existence.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = static_cast<size_t>(state.range(0));
  CertainAnswerSolver solver(&eval, options);
  for (auto _ : state) {
    CertainAnswerResult r =
        solver.Compute(s.setting, *s.instance, *s.query, *s.universe);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CertainAnswersSameAs)->Arg(2)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// The same computation through the ExchangeEngine: one Solve yields the
/// existence verdict AND the certain answers, with the answer memo
/// amortizing repeated evaluation over recurring solution graphs.
void BM_EngineCertainAnswersEgd(benchmark::State& state) {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = static_cast<size_t>(state.range(0));
  ExchangeEngine engine(options);
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  size_t tuples = 0;
  for (auto _ : state) {
    Result<ExchangeOutcome> outcome = engine.Solve(s);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok() && outcome->certain.has_value()) {
      tuples = outcome->certain->tuples.size();
    }
  }
  state.counters["certain_tuples"] = static_cast<double>(tuples);
  state.counters["cache_hits"] =
      static_cast<double>(engine.cache().stats().hits());
}
BENCHMARK(BM_EngineCertainAnswersEgd)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// ISSUE 2 tentpole: the same engine solve with the solution enumeration
/// (and bounded search) fanned over intra-solve workers. Args =
/// {max_solutions, workers}; outputs are byte-identical across worker
/// counts (asserted in intra_solve_test), only wall time moves. Cache off
/// so every iteration re-runs the full enumeration it is timing.
void BM_EngineCertainAnswersEgdIntra(benchmark::State& state) {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 4;
  options.max_solutions = static_cast<size_t>(state.range(0));
  options.intra_solve_threads = static_cast<size_t>(state.range(1));
  options.enable_cache = false;
  ExchangeEngine engine(options);
  Scenario s = MakeExample22Scenario(FlightConstraintMode::kEgd);
  size_t tuples = 0;
  for (auto _ : state) {
    Result<ExchangeOutcome> outcome = engine.Solve(s);
    benchmark::DoNotOptimize(outcome);
    if (outcome.ok() && outcome->certain.has_value()) {
      tuples = outcome->certain->tuples.size();
    }
  }
  state.counters["certain_tuples"] = static_cast<double>(tuples);
  state.counters["workers"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_EngineCertainAnswersEgdIntra)
    ->Args({16, 1})->Args({16, 2})->Args({16, 4})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Ablation: pattern-based certain answers (naive evaluation over the
/// definite subgraph) — polynomial, no solution enumeration.
void BM_PatternCertainAnswers(benchmark::State& state) {
  FlightWorkloadParams params;
  params.num_flights = static_cast<size_t>(state.range(0));
  params.mode = FlightConstraintMode::kNone;
  Scenario s = MakeFlightScenario(params);
  GraphPattern pi =
      ChaseToPattern(*s.instance, s.setting.st_tgds, *s.universe);
  for (auto _ : state) {
    auto answers = PatternCertainAnswers(pi, *s.query, eval);
    benchmark::DoNotOptimize(answers);
  }
}
BENCHMARK(BM_PatternCertainAnswers)->Arg(10)->Arg(40)->Arg(160)
    ->Unit(benchmark::kMillisecond);

/// IsCertain on the Theorem 4.1 family (Cor 4.2's coNP shape): the
/// counterexample search must consider the whole 2^n candidate space on
/// certain instances (unsat), but exits early on non-certain ones (sat).
void BM_IsCertainReduction(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool satisfiable = state.range(1) == 1;
  Rng rng(7);
  CnfFormula rho;
  if (satisfiable) {
    rho = PlantedKSat(n, 3 * n, 3, rng);
  } else {
    // Binary clauses pin the contradiction: a unit clause would let the
    // search's singleton nogoods skip the candidate space.
    rho = RandomKSat(n > 3 ? n - 1 : 2, 2 * n, 3, rng);
    rho.set_num_vars(n);
    rho.AddClause({n - 1, n});
    rho.AddClause({n - 1, -n});
    rho.AddClause({-(n - 1), n});
    rho.AddClause({-(n - 1), -n});
  }
  Universe universe;
  Result<SatEncodedExchange> enc =
      EncodeSatToSetting(rho, universe, ReductionMode::kEgd);
  CnreQuery query;
  VarId x1 = query.InternVar("x1");
  VarId x2 = query.InternVar("x2");
  query.AddAtom(Term::Var(x1), Corollary42Query(*enc), Term::Var(x2));
  query.SetHead({x1, x2});
  CertainAnswerOptions options;
  options.existence.instantiation.max_edges_per_witness = 1;
  options.existence.instantiation.max_witnesses_per_edge = 2;
  options.max_solutions = 4;
  CertainAnswerSolver solver(&eval, options);
  for (auto _ : state) {
    bool certain = solver.IsCertain(enc->setting, *enc->instance, query,
                                    {enc->c1, enc->c2}, universe);
    benchmark::DoNotOptimize(certain);
  }
}
BENCHMARK(BM_IsCertainReduction)
    ->Args({4, 1})->Args({6, 1})->Args({8, 1})
    ->Args({4, 0})->Args({6, 0})->Args({8, 0})
    ->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace gdx

GDX_BENCH_MAIN(gdx::PrintRepro)
