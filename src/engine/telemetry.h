#ifndef GDX_ENGINE_TELEMETRY_H_
#define GDX_ENGINE_TELEMETRY_H_

#include <cstdint>

#include "chase/egd_chase.h"
#include "common/thread_pool.h"
#include "engine/metrics.h"
#include "graph/nre_eval.h"
#include "obs/stats_registry.h"

namespace gdx {

/// The engine's registry-backed metric set (ISSUE 6 tentpole part 1):
/// pre-registered handles for everything a Solve produces, so the hot
/// path records through cached pointers and never touches the registry's
/// name map. One instance lives in each ExchangeEngine whose
/// EngineOptions::stats registry is set; the existing Metrics /
/// CacheStats structs stay the per-solve read-out views (no call site's
/// report changes), and this bridge additionally folds every solve into
/// the engine-wide histograms and counters that `--metrics-json` dumps.
///
/// Metric names are the docs/TELEMETRY.md schema: `engine.solve.*_ns`
/// stage-latency histograms, `engine.work.*` chase/search counters,
/// `engine.chase.*` delta-chase counters (ISSUE 9),
/// `engine.cache.<memo>.<event>` cache counters, `pool.<which>.*`
/// thread-pool counters/gauges, and the ISSUE 10 hot-path counters:
/// `engine.egd.{parallel_rounds,components}` from the component-parallel
/// repair (the sinks below — registry metrics are thread-safe, so
/// concurrent candidate repairs record directly) and
/// `engine.nre.{batch_passes,sources_per_pass}` from the bit-parallel
/// multi-source BFS.
class EngineTelemetry : public EgdRepairStatsSink, public NreEvalStatsSink {
 public:
  explicit EngineTelemetry(obs::StatsRegistry* registry)
      : solve_count_(registry->GetCounter("engine.solve.count")),
        solve_total_(registry->GetHistogram("engine.solve.total_ns")),
        solve_chase_(registry->GetHistogram("engine.solve.chase_ns")),
        solve_existence_(
            registry->GetHistogram("engine.solve.existence_ns")),
        solve_certain_(registry->GetHistogram("engine.solve.certain_ns")),
        solve_minimize_(
            registry->GetHistogram("engine.solve.minimize_ns")),
        solve_verify_(registry->GetHistogram("engine.solve.verify_ns")),
        chase_triggers_(registry->GetCounter("engine.work.chase_triggers")),
        chase_merges_(registry->GetCounter("engine.work.chase_merges")),
        chase_delta_rounds_(
            registry->GetCounter("engine.chase.delta_rounds")),
        chase_skipped_rules_(
            registry->GetCounter("engine.chase.skipped_rules")),
        chase_strata_(registry->GetCounter("engine.chase.strata")),
        candidates_(registry->GetCounter("engine.work.candidates_tried")),
        candidates_pruned_(
            registry->GetCounter("engine.work.candidates_pruned")),
        solutions_(
            registry->GetCounter("engine.work.solutions_enumerated")),
        nre_hits_(registry->GetCounter("engine.cache.nre.hits")),
        nre_misses_(registry->GetCounter("engine.cache.nre.misses")),
        answer_hits_(registry->GetCounter("engine.cache.answer.hits")),
        answer_misses_(registry->GetCounter("engine.cache.answer.misses")),
        compile_hits_(registry->GetCounter("engine.cache.compile.hits")),
        compile_misses_(
            registry->GetCounter("engine.cache.compile.misses")),
        chase_hits_(registry->GetCounter("engine.cache.chase.hits")),
        chase_misses_(registry->GetCounter("engine.cache.chase.misses")),
        restored_hits_(
            registry->GetCounter("engine.cache.restored_hits")),
        intra_submitted_(registry->GetCounter("pool.intra.submitted")),
        intra_executed_(registry->GetCounter("pool.intra.executed")),
        intra_steals_(registry->GetCounter("pool.intra.steals")),
        intra_queue_depth_(registry->GetGauge("pool.intra.queue_depth")),
        egd_parallel_rounds_(
            registry->GetCounter("engine.egd.parallel_rounds")),
        egd_components_(registry->GetCounter("engine.egd.components")),
        nre_batch_passes_(registry->GetCounter("engine.nre.batch_passes")),
        nre_sources_per_pass_(
            registry->GetHistogram("engine.nre.sources_per_pass")) {}

  /// EgdRepairStatsSink: one component-parallel repair round (ISSUE 10).
  void RecordEgdRepairRound(size_t components) override {
    egd_parallel_rounds_->Increment();
    egd_components_->Add(components);
  }

  /// NreEvalStatsSink: one batched multi-source BFS pass (ISSUE 10).
  void RecordNreBatchPass(size_t sources) override {
    nre_batch_passes_->Increment();
    nre_sources_per_pass_->Record(sources);
  }

  /// Folds one finished solve's read-out view into the registry. The
  /// cache counters in `m` are this solve's exact attribution (ISSUE 2),
  /// so summing them here reproduces the batch-wide cache deltas.
  void RecordSolve(const Metrics& m) const {
    solve_count_->Increment();
    solve_total_->Record(ToNs(m.total_seconds));
    solve_chase_->Record(ToNs(m.chase_seconds));
    solve_existence_->Record(ToNs(m.existence_seconds));
    if (m.certain_seconds > 0) solve_certain_->Record(ToNs(m.certain_seconds));
    if (m.minimize_seconds > 0) {
      solve_minimize_->Record(ToNs(m.minimize_seconds));
    }
    if (m.verify_seconds > 0) solve_verify_->Record(ToNs(m.verify_seconds));
    chase_triggers_->Add(m.chase_triggers);
    chase_merges_->Add(m.chase_merges);
    chase_delta_rounds_->Add(m.chase_delta_rounds);
    chase_skipped_rules_->Add(m.chase_skipped_rules);
    chase_strata_->Add(m.chase_strata);
    candidates_->Add(m.candidates_tried);
    candidates_pruned_->Add(m.candidates_pruned);
    solutions_->Add(m.solutions_enumerated);
    nre_hits_->Add(m.nre_cache_hits);
    nre_misses_->Add(m.nre_cache_misses);
    answer_hits_->Add(m.answer_cache_hits);
    answer_misses_->Add(m.answer_cache_misses);
    compile_hits_->Add(m.compile_cache_hits);
    compile_misses_->Add(m.compile_cache_misses);
    chase_hits_->Add(m.chase_cache_hits);
    chase_misses_->Add(m.chase_cache_misses);
    restored_hits_->Add(m.cache_restored_hits());
  }

  /// Publishes the intra-solve pool's health. Counter totals are
  /// monotonic on the pool side; this adds the delta since the last
  /// publish (callers publish from one thread at a time — the batch
  /// layer's post-SolveAll hook).
  void PublishIntraPool(const ThreadPoolStats& stats) const {
    intra_submitted_->Add(stats.submitted - last_intra_.submitted);
    intra_executed_->Add(stats.executed - last_intra_.executed);
    intra_steals_->Add(stats.steals - last_intra_.steals);
    intra_queue_depth_->Set(static_cast<int64_t>(stats.queue_depth));
    last_intra_ = stats;
  }

  static uint64_t ToNs(double seconds) {
    return seconds <= 0 ? 0 : static_cast<uint64_t>(seconds * 1e9);
  }

 private:
  obs::Counter* solve_count_;
  obs::Histogram* solve_total_;
  obs::Histogram* solve_chase_;
  obs::Histogram* solve_existence_;
  obs::Histogram* solve_certain_;
  obs::Histogram* solve_minimize_;
  obs::Histogram* solve_verify_;
  obs::Counter* chase_triggers_;
  obs::Counter* chase_merges_;
  obs::Counter* chase_delta_rounds_;
  obs::Counter* chase_skipped_rules_;
  obs::Counter* chase_strata_;
  obs::Counter* candidates_;
  obs::Counter* candidates_pruned_;
  obs::Counter* solutions_;
  obs::Counter* nre_hits_;
  obs::Counter* nre_misses_;
  obs::Counter* answer_hits_;
  obs::Counter* answer_misses_;
  obs::Counter* compile_hits_;
  obs::Counter* compile_misses_;
  obs::Counter* chase_hits_;
  obs::Counter* chase_misses_;
  obs::Counter* restored_hits_;
  obs::Counter* intra_submitted_;
  obs::Counter* intra_executed_;
  obs::Counter* intra_steals_;
  obs::Gauge* intra_queue_depth_;
  obs::Counter* egd_parallel_rounds_;
  obs::Counter* egd_components_;
  obs::Counter* nre_batch_passes_;
  obs::Histogram* nre_sources_per_pass_;
  /// Delta tracking for PublishIntraPool; mutable because publishing is
  /// logically read-only engine observation (single publisher at a time).
  mutable ThreadPoolStats last_intra_;
};

}  // namespace gdx

#endif  // GDX_ENGINE_TELEMETRY_H_
