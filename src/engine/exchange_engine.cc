#include "engine/exchange_engine.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "chase/chase_compiler.h"
#include "exchange/solution_check.h"
#include "obs/trace.h"

namespace gdx {
namespace {

const char* VerdictName(ExistenceVerdict v) {
  switch (v) {
    case ExistenceVerdict::kYes: return "YES";
    case ExistenceVerdict::kNo: return "NO";
    case ExistenceVerdict::kUnknown: return "UNKNOWN";
  }
  return "?";
}

}  // namespace

ExistenceOptions EngineOptions::ToExistenceOptions() const {
  ExistenceOptions out;
  switch (existence_policy) {
    case ExistencePolicy::kAuto:
      out.strategy = ExistenceStrategy::kAuto;
      break;
    case ExistencePolicy::kChaseRefute:
      out.strategy = ExistenceStrategy::kChaseRefute;
      break;
    case ExistencePolicy::kBoundedSearch:
      out.strategy = ExistenceStrategy::kBoundedSearch;
      break;
    case ExistencePolicy::kSatBacked:
      out.strategy = ExistenceStrategy::kSatBacked;
      break;
  }
  out.instantiation = instantiation;
  out.max_candidates = max_candidates;
  out.target_tgd_max_rounds = target_tgd_max_rounds;
  out.dedup_isomorphic = dedup_isomorphic;
  out.egd_policy = egd_policy;
  if (intra_solve_threads == kIntraSolveAdaptive) {
    // Adaptive scheduling (ISSUE 5 satellite): the sentinel never reaches
    // the solver as a worker count — it becomes "pool size + 1, scaled
    // down per scenario by the choice space".
    out.intra_solve_threads = 0;
    out.adaptive_intra = true;
  } else {
    out.intra_solve_threads = intra_solve_threads;
  }
  out.sat_cube_vars = sat_cube_vars;
  // intra_pool / worker_scope / cancel are per-call wiring the engine adds
  // in MakeExistenceOptions; hand-wired solvers run sequentially unless
  // the caller supplies a pool of their own.
  return out;
}

std::string ExchangeOutcome::ToString(const Universe& universe,
                                      const Alphabet& alphabet) const {
  std::ostringstream out;
  out << "existence: " << VerdictName(existence.verdict) << "  ("
      << existence.note << ")\n";
  if (solution.has_value()) {
    if (core_minimized) {
      out << "core-minimized: removed " << core_stats.edges_removed
          << " edge(s), " << core_stats.nodes_removed << " node(s)\n";
    }
    out << solution->ToString(universe, alphabet);
  }
  if (certain.has_value()) {
    if (certain->no_solution) {
      out << "certain: no solution exists; every tuple is vacuously "
             "certain\n";
    } else {
      out << "certain answers (" << certain->solutions_considered
          << " solution(s) intersected):\n";
      for (const auto& tuple : certain->tuples) {
        out << "  (";
        for (size_t i = 0; i < tuple.size(); ++i) {
          if (i > 0) out << ", ";
          out << universe.NameOf(tuple[i]);
        }
        out << ")\n";
      }
    }
  }
  return out.str();
}

ExchangeEngine::ExchangeEngine(EngineOptions options)
    : options_(options), cache_(new EngineCache(options.cache)) {
  if (options_.evaluator == EvaluatorKind::kNaive) {
    base_eval_.reset(new NaiveNreEvaluator);
  } else {
    // The cache doubles as the compiled-automaton store (ISSUE 3): every
    // intra-solve worker and batch scenario shares one lowering per NRE.
    automaton_eval_ = new AutomatonNreEvaluator(
        options_.enable_cache ? cache_.get() : nullptr);
    automaton_eval_->set_multi_source_mode(options_.nre_multi_source);
    base_eval_.reset(automaton_eval_);
  }
  // 0 resolves to hardware concurrency; the caller thread is worker 0, so
  // the pool only needs the extra ones. All concurrent Solves share it.
  size_t workers = intra_solve_threads();
  if (workers > 1) intra_pool_.reset(new ThreadPool(workers - 1));
  if (options_.stats != nullptr) {
    telemetry_.reset(new EngineTelemetry(options_.stats));
    // Batched-BFS pass counters (engine.nre.*) flow straight from the
    // evaluator into the registry; registry metrics are thread-safe, so
    // concurrent solves record without coordination.
    if (automaton_eval_ != nullptr) {
      automaton_eval_->set_stats_sink(telemetry_.get());
    }
  }
}

void ExchangeEngine::PublishPoolTelemetry() const {
  if (telemetry_ != nullptr && intra_pool_ != nullptr) {
    telemetry_->PublishIntraPool(intra_pool_->stats());
  }
}

Result<SnapshotRestoreStats> ExchangeEngine::WarmStart(
    const std::string& path) {
  SnapshotRestoreStats restored;
  Status status = cache_->LoadSnapshot(path, &restored);
  if (!status.ok()) return status;
  return restored;
}

Status ExchangeEngine::SaveWarmState(const std::string& path) const {
  return cache_->SaveSnapshot(path);
}

size_t ExchangeEngine::intra_solve_threads() const {
  // Adaptive (the default) sizes the *pool* for the hardware; the
  // per-scenario scale-down happens inside the solver's searches.
  if (options_.intra_solve_threads == 0 ||
      options_.intra_solve_threads == EngineOptions::kIntraSolveAdaptive) {
    return ThreadPool::DefaultThreads();
  }
  return options_.intra_solve_threads;
}

ExistenceOptions ExchangeEngine::MakeExistenceOptions(
    PerSolveCacheStats* sink, const CancellationToken* cancel) const {
  ExistenceOptions out = options_.ToExistenceOptions();
  out.intra_solve_threads = intra_solve_threads();
  out.intra_pool = intra_pool_.get();
  out.cancel = cancel;
  out.egd_stats = telemetry_.get();
  // Intra-solve workers serve *this* solve: route their cache traffic to
  // its sink (exact per-solve attribution under concurrent batches) and
  // install the solve's cancellation token for evaluator internals — the
  // batched BFS polls the thread-local token (ISSUE 10).
  out.worker_scope = [sink, cancel](size_t worker,
                                    const std::function<void()>& body) {
    ScopedCacheAttribution attribution(sink);
    ScopedEvalCancellation eval_cancel(cancel);
    // Worker-rank attribution in the trace (ISSUE 6): one span per
    // intra-solve worker run, arg = the worker's rank within this solve's
    // fan-out (0 = the calling thread).
    (void)worker;  // referenced only by the span under GDX_OBS_DISABLED
    GDX_TRACE_SPAN("intra.worker", "intra", worker);
    body();
  };
  return out;
}

Result<ExchangeOutcome> ExchangeEngine::Solve(
    const Scenario& scenario, const CancellationToken* cancel) const {
  if (scenario.universe == nullptr || scenario.instance == nullptr ||
      scenario.alphabet == nullptr) {
    return Status::InvalidArgument(
        "scenario is missing universe/instance/alphabet");
  }
  const NreEvaluator& eval = evaluator();
  ExchangeOutcome out;
  Metrics& m = out.metrics;
  m.scenarios = 1;
  // Per-solve cache attribution (ISSUE 2 satellite): this sink collects
  // every cache touch made on this solve's behalf — from this thread and
  // from the intra-solve workers, which install it via worker_scope.
  PerSolveCacheStats solve_cache;
  ScopedCacheAttribution attribution(&solve_cache);
  // Evaluator-internal cancellation on the calling thread (workers get it
  // via worker_scope): the batched multi-source BFS polls this token per
  // round, bounding an abort inside one long evaluation (ISSUE 10).
  ScopedEvalCancellation eval_cancel(cancel);
  ExistenceOptions existence_options =
      MakeExistenceOptions(&solve_cache, cancel);
  {
    StageTimer total(&m.total_seconds);
    GDX_TRACE_SPAN("solve", "engine");

    // Stage 1 — universal representative (§5), compiled once per content
    // (ISSUE 5 tentpole): the chased memo serves repeats and warm starts;
    // a miss runs the s-t chase + adapted egd chase and publishes the
    // artifact. A failing adapted chase is a sound "no solution".
    ChasedScenarioPtr chased;
    bool chase_refuted = false;
    bool chase_canceled = false;
    {
      StageTimer t(&m.chase_seconds);
      GDX_TRACE_SPAN("chase", "engine");
      chased = StageChase(scenario, m, &solve_cache, cancel);
      if (chased->canceled) {
        // The chase aborted mid-way (ISSUE 8): the pattern is truncated —
        // neither published in the outcome nor handed to later stages.
        out.existence.verdict = ExistenceVerdict::kUnknown;
        out.existence.note = "search cancelled";
        chase_canceled = true;
      } else if (chased->failed) {
        out.existence.verdict = ExistenceVerdict::kNo;
        out.existence.refuted_by_chase = true;
        out.existence.note =
            "adapted chase failed: " + chased->failure_reason;
        chase_refuted = true;
      } else {
        out.pattern = chased->pattern;
      }
    }

    // Stage 2 — existence decision under the configured policy, replaying
    // the stage-1 artifact instead of re-chasing.
    if (!chase_refuted && !chase_canceled) {
      StageTimer t(&m.existence_seconds);
      GDX_TRACE_SPAN("existence", "engine");
      ExistenceSolver solver(&eval, existence_options);
      out.existence =
          solver.Decide(scenario.setting, *scenario.instance,
                        *scenario.universe, chased.get());
    }
    m.candidates_tried = out.existence.candidates_tried;
    m.candidates_pruned = out.existence.candidates_pruned;

    // Stage 3 — materialize (and optionally core-minimize) the solution.
    // A witness that exists is complete (Decide only emits verified
    // solutions), but skip the optional minimization once the token has
    // fired — it would burn the caller's remaining budget.
    if (out.existence.witness.has_value()) {
      if (options_.minimize_core &&
          (cancel == nullptr || !cancel->stop_requested())) {
        StageTimer t(&m.minimize_seconds);
        GDX_TRACE_SPAN("minimize", "engine");
        out.solution = GreedyCoreMinimize(
            *out.existence.witness, scenario.setting, *scenario.instance,
            eval, *scenario.universe, &out.core_stats);
        out.core_minimized = true;
      } else {
        out.solution = *out.existence.witness;
      }
    }

    // Stage 4 — certain answers of the scenario query. A chase refutation
    // already settles them (no solution: every tuple is vacuously
    // certain), so skip the enumeration — it would only redo the failing
    // chase.
    if (scenario.query != nullptr && options_.compute_certain_answers &&
        (cancel == nullptr || !cancel->stop_requested())) {
      StageTimer t(&m.certain_seconds);
      GDX_TRACE_SPAN("certain", "engine");
      if (chase_refuted) {
        CertainAnswerResult vacuous;
        vacuous.no_solution = true;
        out.certain = std::move(vacuous);
      } else {
        out.certain = ComputeCertainAnswers(scenario, out.existence,
                                            existence_options, chased.get());
      }
      m.solutions_enumerated = out.certain->solutions_considered;
    }

    // Stage 5 — defensive final check of the materialized solution.
    if (options_.verify_witness && out.solution.has_value() &&
        (cancel == nullptr || !cancel->stop_requested())) {
      StageTimer t(&m.verify_seconds);
      GDX_TRACE_SPAN("verify", "engine");
      out.solution_verified =
          IsSolution(scenario.setting, *scenario.instance, *out.solution,
                     eval, *scenario.universe);
    }
  }

  // Exact per-solve cache counters from this solve's own sink — no
  // overlap with concurrent sibling solves; their sums reproduce the
  // batch-wide deltas (BatchExecutor cross-checks that).
  CacheStats solve_delta = solve_cache.Snapshot();
  m.nre_cache_hits = solve_delta.nre_hits;
  m.nre_cache_misses = solve_delta.nre_misses;
  m.answer_cache_hits = solve_delta.answer_hits;
  m.answer_cache_misses = solve_delta.answer_misses;
  m.compile_cache_hits = solve_delta.compile_hits;
  m.compile_cache_misses = solve_delta.compile_misses;
  m.chase_cache_hits = solve_delta.chase_hits;
  m.chase_cache_misses = solve_delta.chase_misses;
  m.nre_cache_restored_hits = solve_delta.nre_restored_hits;
  m.answer_cache_restored_hits = solve_delta.answer_restored_hits;
  m.compile_cache_restored_hits = solve_delta.compile_restored_hits;
  m.chase_cache_restored_hits = solve_delta.chase_restored_hits;
  // Typed interruption outcome (ISSUE 8): record why the solve stopped
  // early. stop_requested() self-trips an expired deadline, so a deadline
  // that lapsed without any stage polling still surfaces here.
  if (cancel != nullptr && cancel->stop_requested()) {
    out.interrupt = cancel->reason();
  }
  // Registry-backed accumulation (ISSUE 6): fold this solve's read-out
  // view into the engine-wide histograms/counters. One pointer check when
  // no registry is attached.
  if (telemetry_ != nullptr) telemetry_->RecordSolve(m);
  return out;
}

ChasedScenarioPtr ExchangeEngine::StageChase(const Scenario& scenario,
                                             Metrics& m,
                                             PerSolveCacheStats* sink,
                                             const CancellationToken* cancel)
    const {
  auto compile = [&]() -> ChasedScenarioPtr {
    GDX_TRACE_SPAN("chase.compile", "engine");
    ChaseCompileOptions compile_options;
    compile_options.algorithm = options_.chase_policy == ChasePolicy::kNaive
                                    ? ChaseAlgorithm::kNaive
                                    : ChaseAlgorithm::kDelta;
    compile_options.pool = intra_pool_.get();
    compile_options.max_workers = intra_solve_threads();
    compile_options.cancel = cancel;
    // Borrowed chase workers serve *this* solve: route their cache
    // traffic to its sink, exactly like the existence stage's
    // worker_scope (BatchExecutor cross-checks the per-solve sums).
    compile_options.wrap_worker = [sink](size_t worker,
                                         const std::function<void()>& body) {
      ScopedCacheAttribution attribution(sink);
      (void)worker;  // referenced only by the span under GDX_OBS_DISABLED
      GDX_TRACE_SPAN("chase.worker", "chase", worker);
      body();
    };
    return ChaseCompiler::Compile(scenario.setting, *scenario.instance,
                                  *scenario.universe, evaluator(),
                                  compile_options);
  };
  std::string key;
  if (options_.enable_cache) {
    GDX_TRACE_SPAN("cache.chase_lookup", "cache");
    key = ChaseCompiler::Key(scenario.setting, *scenario.instance,
                             *scenario.universe);
  }
  // Single-flight: concurrent solves of one content run one chase, and a
  // canceled (truncated) artifact is never published.
  bool compiled = true;
  ChasedScenarioPtr chased =
      options_.enable_cache
          ? cache_->GetOrCompileChased(key, compile, cancel, &compiled)
          : compile();
  if (!compiled) {
    // The key pins the universe's base null count, so the artifact's
    // arena drops in id-for-id; the chase itself is skipped and the
    // work counters in `m` stay 0 for this solve.
    ChaseCompiler::Adopt(*chased, *scenario.universe);
    return chased;
  }
  m.chase_triggers = chased->stats.triggers;
  m.chase_merges = chased->egd_merges;
  m.chase_delta_rounds = chased->delta.delta_rounds;
  m.chase_skipped_rules = chased->delta.skipped_rules;
  m.chase_strata = chased->delta.strata;
  return chased;
}

CertainAnswerResult ExchangeEngine::ComputeCertainAnswers(
    const Scenario& scenario, const ExistenceReport& existence,
    const ExistenceOptions& existence_options,
    const ChasedScenario* chased) const {
  const NreEvaluator& eval = evaluator();
  CertainAnswerResult result;
  ExistenceSolver solver(&eval, existence_options);
  std::vector<Graph> solutions = solver.EnumerateSolutions(
      scenario.setting, *scenario.instance, *scenario.universe,
      options_.max_solutions, chased);
  if (existence_options.cancel != nullptr &&
      existence_options.cancel->stop_requested()) {
    // A cancelled enumeration is truncated arbitrarily; intersecting over
    // it would over-approximate the certain answers. Report the sound
    // empty set ("nothing certified") instead.
    return result;
  }
  result.solutions_considered = solutions.size();
  if (solutions.empty()) {
    // Stage 2 already decided existence under the same options — reuse it
    // to tell "no solution" (vacuously certain) from an empty enumeration.
    result.no_solution = existence.verdict == ExistenceVerdict::kNo;
    return result;
  }

  std::unordered_set<std::vector<Value>, ValueVecHash> intersection;
  bool first = true;
  for (const Graph& g : solutions) {
    // Answer memo: repeated queries over an already-seen solution graph
    // (up to null renaming) skip CNRE matching entirely.
    std::string key;
    std::vector<std::vector<Value>> constant_tuples;
    bool hit = false;
    if (options_.enable_cache) {
      key = EngineCache::AnswerKey(*scenario.query, g);
      hit = cache_->LookupAnswers(key, g, &constant_tuples);
    }
    if (!hit) {
      std::vector<std::vector<Value>> answers =
          EvaluateCnre(*scenario.query, g, eval);
      for (auto& t : answers) {
        if (AllConstantTuple(t)) constant_tuples.push_back(std::move(t));
      }
      if (options_.enable_cache) {
        cache_->StoreAnswers(key, g, constant_tuples);
      }
    }
    if (first) {
      intersection.insert(constant_tuples.begin(), constant_tuples.end());
      first = false;
    } else {
      std::unordered_set<std::vector<Value>, ValueVecHash> keep(
          constant_tuples.begin(), constant_tuples.end());
      for (auto it = intersection.begin(); it != intersection.end();) {
        if (keep.count(*it) == 0) {
          it = intersection.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (intersection.empty()) break;
  }
  result.tuples.assign(intersection.begin(), intersection.end());
  SortAnswerTuples(result.tuples);
  return result;
}

}  // namespace gdx
