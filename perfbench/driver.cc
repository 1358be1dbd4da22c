// perfbench_driver: the benchmark's child process. run.py generates the
// inputs and supervises this binary; the binary links the gdx library and
// solves the generated .gdx scenarios through the shipped engine.
//
//   perfbench_driver run       closed-loop measured run (or the untimed
//                              reference run) over a manifest of scenarios
//   perfbench_driver trace     untraced engine pass, then the same
//                              scenarios through the benchmark's own
//                              recomposition of Solve with per-layer spans
//   perfbench_driver load      load generator for `gdx_cli serve`: an
//                              open-loop rate ladder, then a closed-loop
//                              saturation phase
//   perfbench_driver persist   times snapshot load/save of a checkpoint
//
// Progress goes to stdout one line at a time, flushed, so the supervisor
// can tell which scenarios a crashed child lost:
//   ready                      set-up done (inputs parsed, engine built)
//   go <cpu_ns>                measured phase starts
//   begin <first> <count>      a batch is about to run
//   end <first> <count> <wall_ns> <bad> <lat_ns>,...
//   done                       measured phase over
// Outcome texts (ExchangeOutcome::ToString) go to --report as records
//   @@ <file-id> <length>\n<text>
// written once per distinct file and process; later solves of the same
// file are byte-compared in process against the first text.

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "chase/chase_compiler.h"
#include "common/thread_pool.h"
#include "engine/batch_executor.h"
#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "exchange/solution_check.h"
#include "graph/cnre.h"
#include "obs/trace.h"
#include "serve/client.h"
#include "solver/certain.h"
#include "solver/existence.h"
#include "workload/scenario_parser.h"

using namespace gdx;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

/// --key=value flags.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) Die("unexpected argument: " + arg);
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }
  std::string Str(const std::string& key, const std::string& def = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  std::string Need(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key, int64_t def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atoll(it->second.c_str());
  }
  double Real(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::atof(it->second.c_str());
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The engine options of the shipped CLI (`gdx_cli batch` and `serve`):
/// library defaults except the witness and solution budgets the CLI sets.
/// Batch threads and intra-solve fan-out stay at their defaults.
EngineOptions ShippedEngineOptions(const Flags& flags) {
  EngineOptions options;
  options.instantiation.max_witnesses_per_edge = 3;
  options.max_solutions = 16;
  if (flags.Has("intra-threads")) {
    options.intra_solve_threads =
        static_cast<size_t>(flags.Int("intra-threads", 0));
  }
  return options;
}

/// The manifest: scenario index i solves files[file_of[i]].
struct Inputs {
  std::vector<size_t> file_of;
  std::vector<std::string> files;
  std::vector<std::string> texts;

  size_t FileAt(size_t index) const {
    return file_of[index % file_of.size()];
  }
};

Inputs LoadInputs(const std::string& manifest) {
  Inputs in;
  std::map<std::string, size_t> ids;
  std::istringstream lines(ReadFile(manifest));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto [it, fresh] = ids.emplace(line, in.files.size());
    if (fresh) {
      in.files.push_back(line);
      in.texts.push_back(ReadFile(line));
    }
    in.file_of.push_back(it->second);
  }
  if (in.file_of.empty()) Die("empty manifest " + manifest);
  return in;
}

Scenario Parse(const std::string& text) {
  Result<Scenario> s = ParseScenario(text);
  if (!s.ok()) Die("scenario does not parse: " + s.status().ToString());
  return std::move(s).value();
}

/// Scenario objects are single-use (a solve appends nulls to the
/// scenario's universe), so each index gets its own parse. Set-up parses
/// the first use of every manifest entry; later cycles re-parse outside
/// the timed region.
class ScenarioSource {
 public:
  ScenarioSource(const Inputs& inputs, size_t start, bool cycle)
      : inputs_(inputs), cycle_(cycle) {
    const size_t n = inputs.file_of.size();
    prepared_.resize(n);
    for (size_t i = start; i < start + n && (cycle || i < n); ++i) {
      prepared_[i % n] = std::make_unique<Scenario>(
          Parse(inputs.texts[inputs.FileAt(i)]));
    }
  }
  /// Scenarios left from `index` on (unbounded when cycling).
  size_t Remaining(size_t index) const {
    const size_t n = inputs_.file_of.size();
    return cycle_ ? SIZE_MAX : n - std::min(index, n);
  }
  Scenario Take(size_t index) {
    std::unique_ptr<Scenario>& slot =
        prepared_[index % inputs_.file_of.size()];
    if (slot != nullptr) {
      Scenario s = std::move(*slot);
      slot.reset();
      return s;
    }
    return Parse(inputs_.texts[inputs_.FileAt(index)]);
  }

 private:
  const Inputs& inputs_;
  bool cycle_;
  std::vector<std::unique_ptr<Scenario>> prepared_;
};

/// Per-process oracle bookkeeping: the first outcome text of each file
/// goes to the report; every later one must be byte-identical to it.
class OutcomeLog {
 public:
  OutcomeLog(const std::string& path, size_t num_files)
      : first_(num_files), seen_(num_files, false) {
    if (!path.empty()) {
      out_.open(path, std::ios::binary | std::ios::app);
      if (!out_) Die("cannot write " + path);
    }
  }
  /// Returns false on a mismatch with the file's first outcome.
  bool Record(size_t file, const std::string& text) {
    if (!seen_[file]) {
      seen_[file] = true;
      first_[file] = text;
      if (out_.is_open()) {
        out_ << "@@ " << file << " " << text.size() << "\n" << text;
      }
      return true;
    }
    return first_[file] == text;
  }
  void Flush() {
    if (out_.is_open()) out_.flush();
  }

 private:
  std::ofstream out_;
  std::vector<std::string> first_;
  std::vector<bool> seen_;
};

/// The outcome text the oracle compares, or an ERROR line. A YES verdict
/// whose final check did not pass is a failure in its own right.
std::string OutcomeText(const Result<ExchangeOutcome>& r, const Scenario& s,
                        bool* bad) {
  if (!r.ok()) {
    *bad = true;
    return "ERROR " + r.status().ToString() + "\n";
  }
  if (r->existence.verdict == ExistenceVerdict::kYes &&
      r->solution_verified != std::optional<bool>(true)) {
    *bad = true;
  }
  return r->ToString(*s.universe, *s.alphabet);
}

void Emit(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The closed loop that the measured run and the traced run's passes share
// ---------------------------------------------------------------------------

// The hit, miss and eviction counts of CacheStats.
constexpr uint64_t CacheStats::*kCacheCounts[] = {
    &CacheStats::nre_hits,          &CacheStats::nre_misses,
    &CacheStats::answer_hits,       &CacheStats::answer_misses,
    &CacheStats::compile_hits,      &CacheStats::compile_misses,
    &CacheStats::chase_hits,        &CacheStats::chase_misses,
    &CacheStats::nre_evictions,     &CacheStats::answer_evictions,
    &CacheStats::compile_evictions, &CacheStats::chase_evictions};

CacheStats Sum(const CacheStats& a, const CacheStats& b) {
  CacheStats s;
  for (uint64_t CacheStats::*f : kCacheCounts) s.*f = a.*f + b.*f;
  return s;
}

/// The counts of `now` minus those of `then`.
CacheStats Since(const CacheStats& now, const CacheStats& then) {
  CacheStats d;
  for (uint64_t CacheStats::*f : kCacheCounts) d.*f = now.*f - then.*f;
  return d;
}

/// An engine cache that a cold workload empties each time its manifest
/// wraps around, so that every solve of the next cycle is the first of its
/// instance; stats() still counts the traffic from before each clear.
class ClearableCache {
 public:
  explicit ClearableCache(EngineCache* cache) : cache_(cache) {}
  void Clear() {
    cleared_ = Sum(cleared_, cache_->stats());
    cache_->Clear();
  }
  CacheStats stats() const { return Sum(cleared_, cache_->stats()); }

 private:
  EngineCache* cache_;
  CacheStats cleared_;
};

/// One solved batch: its outcomes, per-scenario latencies and wall time.
struct Solved {
  std::vector<Result<ExchangeOutcome>> outcomes;
  std::vector<int64_t> latency_ns;
  int64_t wall_ns = 0;
};

/// The shipped engine at the CLI's options. One outstanding Solve drives
/// the engine directly; a batch goes through the BatchExecutor, whose pool
/// sizes itself like the CLI's.
class ShippedEngine {
 public:
  ShippedEngine(const BatchOptions& options, size_t batch) {
    if (batch > 1) {
      executor_ = std::make_unique<BatchExecutor>(options);
    } else {
      engine_ = std::make_unique<ExchangeEngine>(options.engine);
    }
    cache_ = std::make_unique<ClearableCache>(
        executor_ != nullptr ? &executor_->engine().cache()
                             : &engine_->cache());
  }

  Solved Solve(std::vector<Scenario>& scenarios) {
    Solved out;
    if (executor_ != nullptr) {
      BatchReport report = executor_->SolveAll(scenarios);
      out.wall_ns = static_cast<int64_t>(report.wall_seconds * 1e9);
      for (const auto& timing : report.timings) {
        out.latency_ns.push_back(
            static_cast<int64_t>(timing.execute_seconds * 1e9));
      }
      out.outcomes = std::move(report.outcomes);
      return out;
    }
    for (Scenario& scenario : scenarios) {
      const int64_t t0 = NowNs();
      out.outcomes.push_back(engine_->Solve(scenario));
      out.latency_ns.push_back(NowNs() - t0);
      out.wall_ns += out.latency_ns.back();
    }
    return out;
  }

  ClearableCache& cache() { return *cache_; }

 private:
  std::unique_ptr<BatchExecutor> executor_;
  std::unique_ptr<ExchangeEngine> engine_;
  std::unique_ptr<ClearableCache> cache_;
};

/// What one pass over the scenarios produced.
struct PassSummary {
  bool keep_texts = false;  // the traced run compares passes text by text
  std::vector<std::string> texts;
  int64_t candidates = 0;
  int64_t solutions = 0;
  int64_t wall_ns = 0;
  int64_t cpu_ns = 0;
  CacheStats cache;
  size_t bad = 0;
};

/// Solves scenarios from `first` on, batch by batch through `solve`, until
/// `count` are solved or, with count == 0, until `deadline` passes; a
/// manifest that does not cycle also ends the pass. `log` checks every
/// outcome text against its file's first one. A non-null `cold` cache is
/// cleared before each batch that starts a cycle of the manifest. With
/// `progress` the begin/end lines the supervisor reads are emitted.
/// Returns the number of scenarios solved.
template <typename SolveBatch>
size_t RunPass(const Inputs& inputs, ScenarioSource& source, size_t first,
               size_t batch, size_t count, int64_t deadline, SolveBatch solve,
               OutcomeLog& log, ClearableCache* cold, bool progress,
               PassSummary* out) {
  const int64_t cpu0 = CpuNs();
  size_t done = 0;
  for (;;) {
    const size_t next = first + done;
    if (count > 0 ? done >= count : NowNs() >= deadline) break;
    size_t n = std::min(batch, source.Remaining(next));
    if (count > 0) n = std::min(n, count - done);
    if (n == 0) break;
    if (cold != nullptr && next % inputs.file_of.size() == 0) cold->Clear();
    std::vector<Scenario> scenarios;
    scenarios.reserve(n);
    for (size_t i = next; i < next + n; ++i) {
      scenarios.push_back(source.Take(i));
    }
    if (progress) {
      Emit("begin " + std::to_string(next) + " " + std::to_string(n));
    }
    Solved solved = solve(next, scenarios);
    out->wall_ns += solved.wall_ns;
    size_t bad = 0;
    for (size_t k = 0; k < n; ++k) {
      bool failed = false;
      std::string text = OutcomeText(solved.outcomes[k], scenarios[k], &failed);
      if (!log.Record(inputs.FileAt(next + k), text)) failed = true;
      if (failed) {
        ++bad;
        std::fprintf(stderr, "perfbench_driver: scenario %zu (%s) failed:\n%s",
                     next + k, inputs.files[inputs.FileAt(next + k)].c_str(),
                     text.c_str());
      }
      if (solved.outcomes[k].ok()) {
        const auto& m = solved.outcomes[k]->metrics;
        out->candidates += static_cast<int64_t>(m.candidates_tried);
        out->solutions += static_cast<int64_t>(m.solutions_enumerated);
      }
      if (out->keep_texts) out->texts.push_back(std::move(text));
    }
    out->bad += bad;
    log.Flush();
    if (progress) {
      std::string line = "end " + std::to_string(next) + " " +
                         std::to_string(n) + " " +
                         std::to_string(solved.wall_ns) + " " +
                         std::to_string(bad) + " ";
      for (size_t k = 0; k < n; ++k) {
        if (k > 0) line += ",";
        line += std::to_string(solved.latency_ns[k]);
      }
      Emit(line);
    }
    done += n;
  }
  out->cpu_ns = CpuNs() - cpu0;
  return done;
}

// ---------------------------------------------------------------------------
// run: the measured closed loop, and the untimed reference
// ---------------------------------------------------------------------------

int RunLoop(const Flags& flags) {
  const Inputs inputs = LoadInputs(flags.Need("manifest"));
  const size_t start = static_cast<size_t>(flags.Int("start", 0));
  const bool cycle = flags.Has("cycle");
  const size_t batch = static_cast<size_t>(flags.Int("batch", 1));
  OutcomeLog log(flags.Str("report"), inputs.files.size());

  BatchOptions options;
  options.engine = ShippedEngineOptions(flags);
  options.num_threads = static_cast<size_t>(flags.Int("threads", 0));
  if (flags.Has("reference")) {
    // Untimed: every distinct file among the first --limit indices, once,
    // in one SolveAll (run.py passes --threads=1 --intra-threads=1); file
    // blocks split the work over --parts processes.
    const size_t limit = static_cast<size_t>(flags.Int("limit", 0));
    const int64_t part = flags.Int("part", 0), parts = flags.Int("parts", 1);
    std::vector<bool> wanted(inputs.files.size(), false);
    for (size_t i = 0; i < limit && (cycle || i < inputs.file_of.size());
         ++i) {
      wanted[inputs.FileAt(i)] = true;
    }
    std::vector<size_t> all;
    for (size_t f = 0; f < inputs.files.size(); ++f) {
      if (wanted[f]) all.push_back(f);
    }
    // Contiguous blocks: each part gets the same mix of easy and hard.
    std::vector<Scenario> scenarios;
    std::vector<size_t> files;
    for (size_t k = 0; k < all.size(); ++k) {
      if (static_cast<int64_t>(k * parts / all.size()) == part) {
        scenarios.push_back(Parse(inputs.texts[all[k]]));
        files.push_back(all[k]);
      }
    }
    BatchReport report = BatchExecutor(options).SolveAll(scenarios);
    for (size_t k = 0; k < scenarios.size(); ++k) {
      bool failed = false;
      log.Record(files[k], OutcomeText(report.outcomes[k], scenarios[k],
                                       &failed));
    }
    log.Flush();
    Emit("done");
    return 0;
  }

  ScenarioSource source(inputs, start, cycle);
  ShippedEngine engine(options, batch);
  Emit("ready");
  if (flags.Has("setup-only")) return 0;
  auto solve = [&](size_t, std::vector<Scenario>& scenarios) {
    return engine.Solve(scenarios);
  };
  ClearableCache* cold = flags.Has("cold") ? &engine.cache() : nullptr;

  // Caches fill before timing (only the workloads that cycle their
  // inputs warm up, and only in the first process of a run).
  const size_t warmup = static_cast<size_t>(flags.Int("warmup", 0)) * batch;
  if (warmup > 0) {
    PassSummary warm;
    RunPass(inputs, source, start, batch, warmup, 0, solve, log, cold,
            /*progress=*/false, &warm);
  }
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(flags.Real("seconds", 1) * 1e9);
  Emit("go " + std::to_string(CpuNs()));
  PassSummary measured;
  RunPass(inputs, source, start, batch, 0, deadline, solve, log, cold,
          /*progress=*/true, &measured);
  Emit("done");
  return 0;
}

// ---------------------------------------------------------------------------
// trace: per-layer attribution from the benchmark's own code
// ---------------------------------------------------------------------------

enum Layer : int {
  kSolve,  // the recomposed Solve's own glue
  kChaseKey,
  kChaseLookup,
  kChaseCompile,
  kChaseAdopt,
  kChaseStore,
  kExistence,
  kEnumerate,
  kAnswerKey,
  kAnswerLookup,
  kCnre,
  kAnswerStore,
  kIntersect,
  kCheck,
  kNreMemo,
  kNreEval,
  kCompile,
  kNumLayers
};

const char* const kLayerNames[kNumLayers] = {
    "solve",        "chase.key",      "chase.lookup", "chase.compile",
    "chase.adopt",  "chase.store",    "existence",    "certain.enumerate",
    "answers.key",  "answers.lookup", "cnre",         "answers.store",
    "certain.intersect", "check",     "nre.memo",     "nre.eval",
    "compile"};

struct LayerTotals {
  std::atomic<int64_t> self_ns{0};
  std::atomic<int64_t> worker_self_ns{0};  // part of self_ns off the
                                           // solving threads
  std::atomic<int64_t> total_ns{0};
  std::atomic<int64_t> calls{0};
};
LayerTotals g_layers[kNumLayers];
std::atomic<int64_t> g_worker_busy_ns{0};

/// Zeroes the layer totals: the traced pass's warm-up stays out of them.
void ResetLayerTotals() {
  for (LayerTotals& t : g_layers) {
    t.self_ns.store(0);
    t.worker_self_ns.store(0);
    t.total_ns.store(0);
    t.calls.store(0);
  }
  g_worker_busy_ns.store(0);
}

// Span buffer per thread. The layer numbers come from the regions; the
// spans stay in memory, where their cost is part of the measured tracing
// overhead, so overflow only drops events.
constexpr size_t kTraceEventsPerThread = 1 << 15;

/// A timed region of one layer. Regions nest per thread; a region's self
/// time is its duration minus its child regions' durations on the same
/// thread. Intra-solve workers open a root region of the layer that fanned
/// out, so their time lands in that layer's worker share.
class Region {
 public:
  explicit Region(Layer layer, bool counted = true)
      : layer_(layer), counted_(counted), start_(NowNs()), parent_(top_) {
    top_ = this;
  }
  ~Region() {
    const int64_t duration = NowNs() - start_;
    top_ = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += duration;
    LayerTotals& t = g_layers[layer_];
    t.self_ns.fetch_add(duration - child_ns_, std::memory_order_relaxed);
    if (worker_) {
      t.worker_self_ns.fetch_add(duration - child_ns_,
                                 std::memory_order_relaxed);
    }
    if (counted_) {
      t.total_ns.fetch_add(duration, std::memory_order_relaxed);
      t.calls.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  static bool InRegion() { return top_ != nullptr; }
  static void SetWorker(bool worker) { worker_ = worker; }

 private:
  Layer layer_;
  bool counted_;
  int64_t start_;
  int64_t child_ns_ = 0;
  Region* parent_;
  static thread_local Region* top_;
  static thread_local bool worker_;
};
thread_local Region* Region::top_ = nullptr;
thread_local bool Region::worker_ = false;

// One span per stage call, argument = scenario index, plus the region
// that accumulates the same interval into the layer totals.
#define BENCH_STAGE(layer, name, index)               \
  GDX_TRACE_SPAN(name, "bench", index);               \
  Region GDX_OBS_CONCAT(bench_region_, __LINE__)(layer)

/// NreEvaluator decorator: times every call into `base` as `layer`.
/// Memo-able calls (Eval, EvalOnView, EvalDeferred) are counted apart from
/// the pass-through ones the caching evaluator never memoizes.
class TimedEvaluator : public NreEvaluator {
 public:
  TimedEvaluator(const NreEvaluator* base, Layer layer)
      : base_(base), layer_(layer) {}

  BinaryRelation Eval(const NrePtr& nre, const Graph& g) const override {
    Memo memo(this);
    return base_->Eval(nre, g);
  }
  BinaryRelation EvalOnView(const NrePtr& nre,
                            const GraphView& view) const override {
    Memo memo(this);
    return base_->EvalOnView(nre, view);
  }
  BinaryRelation EvalDeferred(
      const NrePtr& nre, const Graph& g,
      const std::function<const GraphView&()>& view) const override {
    Memo memo(this);
    return base_->EvalDeferred(nre, g, view);
  }
  std::vector<Value> EvalFrom(const NrePtr& nre, const Graph& g,
                              Value src) const override {
    Region region(layer_);
    return base_->EvalFrom(nre, g, src);
  }
  std::vector<std::vector<Value>> EvalFromMany(
      const NrePtr& nre, const Graph& g,
      const std::vector<Value>& srcs) const override {
    Region region(layer_);
    return base_->EvalFromMany(nre, g, srcs);
  }
  bool Contains(const NrePtr& nre, const Graph& g, Value src,
                Value dst) const override {
    Region region(layer_);
    return base_->Contains(nre, g, src, dst);
  }
  const char* name() const override { return base_->name(); }

  int64_t memo_calls() const { return memo_calls_.load(); }
  int64_t memo_ns() const { return memo_ns_.load(); }
  void ResetCounts() {
    memo_calls_.store(0);
    memo_ns_.store(0);
  }

 private:
  /// Region plus the memo-able call's count and duration.
  class Memo {
   public:
    explicit Memo(const TimedEvaluator* owner)
        : owner_(owner), start_(NowNs()), region_(owner->layer_) {}
    ~Memo() {
      owner_->memo_calls_.fetch_add(1, std::memory_order_relaxed);
      owner_->memo_ns_.fetch_add(NowNs() - start_,
                                 std::memory_order_relaxed);
    }

   private:
    const TimedEvaluator* owner_;
    int64_t start_;
    Region region_;
  };

  const NreEvaluator* base_;
  Layer layer_;
  mutable std::atomic<int64_t> memo_calls_{0};
  mutable std::atomic<int64_t> memo_ns_{0};
};

/// CompiledNreCache decorator over the engine cache.
class TimedCompileCache : public CompiledNreCache {
 public:
  explicit TimedCompileCache(EngineCache* cache) : cache_(cache) {}
  CompiledNrePtr GetOrCompile(const NrePtr& nre) override {
    Region region(kCompile);
    return cache_->GetOrCompile(nre);
  }

 private:
  EngineCache* cache_;
};

/// Chase work of the compilations the traced pass ran.
struct ChaseWork {
  std::atomic<int64_t> triggers{0};
  std::atomic<int64_t> merges{0};
};

/// ExchangeEngine::Solve recomposed from public calls, with a stage span
/// around each (same order, same options, same memo traffic).
class TracedPipeline {
 public:
  explicit TracedPipeline(const EngineOptions& options)
      : options_(options),
        cache_(options.cache),
        compile_cache_(&cache_),
        automaton_(&compile_cache_),
        inner_(&automaton_, kNreEval),
        caching_(&inner_, &cache_),
        outer_(&caching_, kNreMemo),
        intra_threads_(ThreadPool::DefaultThreads()) {
    automaton_.set_multi_source_mode(options.nre_multi_source);
    // Sized like the engine's pool: the calling thread is worker 0.
    if (intra_threads_ > 1) {
      intra_pool_ = std::make_unique<ThreadPool>(intra_threads_ - 1);
    }
  }

  Result<ExchangeOutcome> Solve(const Scenario& scenario, uint64_t index,
                                ChaseWork* work) const {
    const NreEvaluator& eval = outer_;
    ExchangeOutcome out;
    PerSolveCacheStats solve_cache;
    ScopedCacheAttribution attribution(&solve_cache);
    BENCH_STAGE(kSolve, "solve", index);

    ChasedScenarioPtr chased;
    std::string key;
    {
      BENCH_STAGE(kChaseKey, "chase.key", index);
      key = ChaseCompiler::Key(scenario.setting, *scenario.instance,
                               *scenario.universe);
    }
    {
      BENCH_STAGE(kChaseLookup, "chase.lookup", index);
      chased = cache_.LookupChased(key);
    }
    if (chased != nullptr) {
      BENCH_STAGE(kChaseAdopt, "chase.adopt", index);
      ChaseCompiler::Adopt(*chased, *scenario.universe);
    } else {
      {
        BENCH_STAGE(kChaseCompile, "chase.compile", index);
        ChaseCompileOptions compile;
        compile.algorithm = options_.chase_policy == ChasePolicy::kNaive
                                ? ChaseAlgorithm::kNaive
                                : ChaseAlgorithm::kDelta;
        compile.pool = intra_pool_.get();
        compile.max_workers = intra_threads_;
        compile.wrap_worker = WorkerScope(kChaseCompile, &solve_cache, index);
        chased = ChaseCompiler::Compile(scenario.setting, *scenario.instance,
                                        *scenario.universe, eval, compile);
      }
      work->triggers.fetch_add(static_cast<int64_t>(chased->stats.triggers));
      work->merges.fetch_add(static_cast<int64_t>(chased->egd_merges));
      BENCH_STAGE(kChaseStore, "chase.store", index);
      cache_.StoreChased(key, chased);
    }
    const bool refuted = chased->failed;
    if (refuted) {
      out.existence.verdict = ExistenceVerdict::kNo;
      out.existence.refuted_by_chase = true;
      out.existence.note = "adapted chase failed: " + chased->failure_reason;
    } else {
      out.pattern = chased->pattern;
      BENCH_STAGE(kExistence, "existence.decide", index);
      ExistenceSolver solver(
          &eval, ExistenceOptionsFor(kExistence, &solve_cache, index));
      out.existence = solver.Decide(scenario.setting, *scenario.instance,
                                    *scenario.universe, chased.get());
    }
    if (out.existence.witness.has_value()) {
      out.solution = *out.existence.witness;
    }

    if (scenario.query != nullptr && options_.compute_certain_answers) {
      if (refuted) {
        CertainAnswerResult vacuous;
        vacuous.no_solution = true;
        out.certain = std::move(vacuous);
      } else {
        out.certain = CertainAnswers(scenario, out.existence, chased.get(),
                                     &solve_cache, index);
      }
    }

    if (options_.verify_witness && out.solution.has_value()) {
      BENCH_STAGE(kCheck, "check.verify", index);
      out.solution_verified =
          IsSolution(scenario.setting, *scenario.instance, *out.solution,
                     eval, *scenario.universe);
    }
    out.metrics.candidates_tried = out.existence.candidates_tried;
    if (out.certain.has_value()) {
      out.metrics.solutions_enumerated = out.certain->solutions_considered;
    }
    return out;
  }

  EngineCache& cache() { return cache_; }
  ClearableCache& clearable() { return clearable_; }
  const TimedEvaluator& outer() const { return outer_; }
  const TimedEvaluator& inner() const { return inner_; }
  void ResetEvaluatorCounts() {
    outer_.ResetCounts();
    inner_.ResetCounts();
  }
  ThreadPoolStats intra_stats() const {
    return intra_pool_ != nullptr ? intra_pool_->stats() : ThreadPoolStats{};
  }

 private:
  using WorkerFn =
      std::function<void(size_t, const std::function<void()>&)>;

  /// The engine's worker scope (per-solve cache attribution, evaluator
  /// cancellation scope) plus a span and a root region on pool threads.
  static WorkerFn WorkerScope(Layer layer, PerSolveCacheStats* sink,
                              uint64_t index) {
    return [layer, sink, index](size_t, const std::function<void()>& body) {
      ScopedCacheAttribution attribution(sink);
      ScopedEvalCancellation eval_cancel(nullptr);
      const bool root = !Region::InRegion();
      if (root) Region::SetWorker(true);
      int64_t start = NowNs();
      {
        GDX_TRACE_SPAN("intra.worker", "bench", index);
        Region region(layer, /*counted=*/false);
        body();
      }
      if (root) {
        g_worker_busy_ns.fetch_add(NowNs() - start);
        Region::SetWorker(false);
      }
    };
  }

  ExistenceOptions ExistenceOptionsFor(Layer layer, PerSolveCacheStats* sink,
                                       uint64_t index) const {
    ExistenceOptions out = options_.ToExistenceOptions();
    out.intra_solve_threads = intra_threads_;
    out.intra_pool = intra_pool_.get();
    out.worker_scope = WorkerScope(layer, sink, index);
    return out;
  }

  CertainAnswerResult CertainAnswers(const Scenario& scenario,
                                     const ExistenceReport& existence,
                                     const ChasedScenario* chased,
                                     PerSolveCacheStats* sink,
                                     uint64_t index) const {
    const NreEvaluator& eval = outer_;
    CertainAnswerResult result;
    std::vector<Graph> solutions;
    {
      BENCH_STAGE(kEnumerate, "certain.enumerate", index);
      ExistenceSolver solver(&eval,
                             ExistenceOptionsFor(kEnumerate, sink, index));
      solutions = solver.EnumerateSolutions(
          scenario.setting, *scenario.instance, *scenario.universe,
          options_.max_solutions, chased);
    }
    result.solutions_considered = solutions.size();
    if (solutions.empty()) {
      result.no_solution = existence.verdict == ExistenceVerdict::kNo;
      return result;
    }
    std::unordered_set<std::vector<Value>, ValueVecHash> intersection;
    bool first = true;
    for (const Graph& g : solutions) {
      std::string key;
      std::vector<std::vector<Value>> constant_tuples;
      bool hit = false;
      {
        BENCH_STAGE(kAnswerKey, "answers.key", index);
        key = EngineCache::AnswerKey(*scenario.query, g);
      }
      {
        BENCH_STAGE(kAnswerLookup, "answers.lookup", index);
        hit = cache_.LookupAnswers(key, g, &constant_tuples);
      }
      if (!hit) {
        std::vector<std::vector<Value>> answers;
        {
          BENCH_STAGE(kCnre, "cnre.evaluate", index);
          answers = EvaluateCnre(*scenario.query, g, eval);
        }
        BENCH_STAGE(kIntersect, "certain.intersect", index);
        for (auto& t : answers) {
          if (AllConstantTuple(t)) constant_tuples.push_back(std::move(t));
        }
      }
      if (!hit) {
        BENCH_STAGE(kAnswerStore, "answers.store", index);
        cache_.StoreAnswers(key, g, constant_tuples);
      }
      BENCH_STAGE(kIntersect, "certain.intersect", index);
      if (first) {
        intersection.insert(constant_tuples.begin(), constant_tuples.end());
        first = false;
      } else {
        std::unordered_set<std::vector<Value>, ValueVecHash> keep(
            constant_tuples.begin(), constant_tuples.end());
        for (auto it = intersection.begin(); it != intersection.end();) {
          it = keep.count(*it) == 0 ? intersection.erase(it) : std::next(it);
        }
      }
      if (intersection.empty()) break;
    }
    result.tuples.assign(intersection.begin(), intersection.end());
    SortAnswerTuples(result.tuples);
    return result;
  }

  EngineOptions options_;
  mutable EngineCache cache_;
  ClearableCache clearable_{&cache_};
  TimedCompileCache compile_cache_;
  AutomatonNreEvaluator automaton_;
  TimedEvaluator inner_;
  CachingNreEvaluator caching_;
  TimedEvaluator outer_;
  size_t intra_threads_;
  std::unique_ptr<ThreadPool> intra_pool_;
};

std::string CacheTotals(const CacheStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "nre %llu/%llu answer %llu/%llu compile %llu/%llu "
                "chase %llu/%llu",
                (unsigned long long)s.nre_hits,
                (unsigned long long)s.nre_misses,
                (unsigned long long)s.answer_hits,
                (unsigned long long)s.answer_misses,
                (unsigned long long)s.compile_hits,
                (unsigned long long)s.compile_misses,
                (unsigned long long)s.chase_hits,
                (unsigned long long)s.chase_misses);
  return buf;
}

int RunTrace(const Flags& flags) {
  const Inputs inputs = LoadInputs(flags.Need("manifest"));
  const bool cycle = flags.Has("cycle");
  const size_t batch = static_cast<size_t>(flags.Int("batch", 1));
  const size_t warmup = static_cast<size_t>(flags.Int("warmup", 0)) * batch;
  const int64_t budget_ns =
      static_cast<int64_t>(flags.Real("seconds", 1) * 1e9);
  BatchOptions batch_options;
  batch_options.engine = ShippedEngineOptions(flags);
  OutcomeLog log(flags.Str("report"), inputs.files.size());
  Emit("ready");

  // Three passes over the same scenarios and batch boundaries: the
  // shipped engine untraced (A, closed loop for the time box, which fixes
  // the scenario count), the recomposed pipeline with spans (T), and the
  // engine untraced again (B). Each pass starts from a fresh engine and
  // runs the measured run's untimed warm-up first, so all three time the
  // work the measured run times. A before and B after T keep drift out of
  // the tracing overhead; A against B shows which memo totals vary
  // between two untraced runs. B's texts are checked against A's by `log`.
  auto untraced_pass = [&](size_t count, PassSummary* out) {
    ShippedEngine engine(batch_options, batch);
    ClearableCache* cold = flags.Has("cold") ? &engine.cache() : nullptr;
    ScenarioSource source(inputs, 0, cycle);
    auto solve = [&](size_t, std::vector<Scenario>& scenarios) {
      return engine.Solve(scenarios);
    };
    if (warmup > 0) {
      PassSummary warm;
      RunPass(inputs, source, 0, batch, warmup, 0, solve, log, cold,
              /*progress=*/false, &warm);
    }
    const CacheStats before = engine.cache().stats();
    const size_t done = RunPass(inputs, source, 0, batch, count,
                                NowNs() + budget_ns, solve, log, cold,
                                /*progress=*/false, out);
    out->cache = Since(engine.cache().stats(), before);
    return done;
  };
  PassSummary untraced, traced, again;
  untraced.keep_texts = traced.keep_texts = true;
  const size_t count = untraced_pass(0, &untraced);

  TracedPipeline pipeline(batch_options.engine);
  ThreadPool batch_pool(0);
  ChaseWork warm_work, work;
  ChaseWork* chase_work = &warm_work;
  auto solve_traced = [&](size_t first, std::vector<Scenario>& scenarios) {
    Solved out;
    out.outcomes.assign(scenarios.size(), Result<ExchangeOutcome>(
                                              Status::Internal("did not run")));
    out.latency_ns.assign(scenarios.size(), 0);
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < scenarios.size(); ++k) {
      batch_pool.Submit([&, k] {
        const int64_t start = NowNs();
        out.outcomes[k] = pipeline.Solve(scenarios[k], first + k, chase_work);
        out.latency_ns[k] = NowNs() - start;
      });
    }
    batch_pool.Wait();
    out.wall_ns = NowNs() - t0;
    return out;
  };
  // The traced pipeline's outcomes are compared with A's below, not
  // recorded; this log only checks repeats within the pass.
  OutcomeLog traced_log("", inputs.files.size());
  ClearableCache* traced_cold =
      flags.Has("cold") ? &pipeline.clearable() : nullptr;
  ScenarioSource traced_source(inputs, 0, cycle);
  if (warmup > 0) {
    PassSummary warm;
    RunPass(inputs, traced_source, 0, batch, warmup, 0, solve_traced,
            traced_log, traced_cold, /*progress=*/false, &warm);
  }
  // The warm-up stays out of every per-layer number, except that its
  // misses also price a memo hit (after a warm-up the pass may miss
  // nothing).
  const int64_t warm_cnre_ns = g_layers[kCnre].total_ns.load();
  const int64_t warm_cnre_calls = g_layers[kCnre].calls.load();
  const int64_t warm_nre_miss_ns = pipeline.inner().memo_ns();
  const int64_t warm_nre_misses = pipeline.inner().memo_calls();
  ResetLayerTotals();
  pipeline.ResetEvaluatorCounts();
  chase_work = &work;
  const CacheStats cache_before = pipeline.clearable().stats();
  const ThreadPoolStats intra_before = pipeline.intra_stats();
  obs::Tracer tracer(kTraceEventsPerThread);
  obs::Tracer::SetGlobal(&tracer);
  RunPass(inputs, traced_source, 0, batch, count, 0, solve_traced, traced_log,
          traced_cold, /*progress=*/false, &traced);
  obs::Tracer::SetGlobal(nullptr);
  traced.cache = Since(pipeline.clearable().stats(), cache_before);
  ThreadPoolStats intra = pipeline.intra_stats();
  intra.executed -= intra_before.executed;
  intra.steals -= intra_before.steals;

  untraced_pass(count, &again);

  // Validity: byte-identical outcomes and equal work and memo totals.
  std::string invalid;
  size_t differing = 0;
  for (size_t i = 0; i < count; ++i) {
    if (untraced.texts[i] != traced.texts[i]) ++differing;
  }
  if (differing > 0) {
    invalid += std::to_string(differing) + " outcome text(s) differ; ";
  }
  if (untraced.candidates != traced.candidates) {
    invalid += "candidates " + std::to_string(untraced.candidates) + " vs " +
               std::to_string(traced.candidates) + "; ";
  }
  if (untraced.solutions != traced.solutions) {
    invalid += "solutions " + std::to_string(untraced.solutions) + " vs " +
               std::to_string(traced.solutions) + "; ";
  }
  const std::string totals_a = CacheTotals(untraced.cache);
  const std::string totals_t = CacheTotals(traced.cache);
  const std::string totals_b = CacheTotals(again.cache);
  if (totals_a != totals_t) {
    invalid += "cache hit/miss totals differ (untraced " + totals_a +
               ", traced " + totals_t + "; a second untraced run: " +
               totals_b + "); ";
  }

  const CacheSizes sizes = pipeline.cache().sizes();
  std::ostringstream json;
  json << "{\"scenarios\": " << count
       << ", \"bad\": " << (untraced.bad + traced.bad + again.bad)
       << ", \"untraced_wall_ns\": " << (untraced.wall_ns + again.wall_ns) / 2
       << ", \"traced_wall_ns\": " << traced.wall_ns
       << ", \"untraced_cpu_ns\": " << (untraced.cpu_ns + again.cpu_ns) / 2
       << ", \"traced_cpu_ns\": " << traced.cpu_ns
       << ", \"invalid\": \"" << invalid << "\""
       << ", \"candidates\": " << traced.candidates
       << ", \"solutions\": " << traced.solutions
       << ", \"chase_triggers\": " << work.triggers.load()
       << ", \"chase_merges\": " << work.merges.load()
       << ", \"cache\": {\"nre_hits\": " << traced.cache.nre_hits
       << ", \"nre_misses\": " << traced.cache.nre_misses
       << ", \"answer_hits\": " << traced.cache.answer_hits
       << ", \"answer_misses\": " << traced.cache.answer_misses
       << ", \"compile_hits\": " << traced.cache.compile_hits
       << ", \"compile_misses\": " << traced.cache.compile_misses
       << ", \"chase_hits\": " << traced.cache.chase_hits
       << ", \"chase_misses\": " << traced.cache.chase_misses
       << ", \"evictions\": " << traced.cache.evictions()
       << ", \"entries\": "
       << (sizes.nre_entries + sizes.answer_entries + sizes.compiled_entries +
           sizes.chased_entries)
       << "}, \"nre_outer_memo_calls\": " << pipeline.outer().memo_calls()
       << ", \"nre_inner_memo_calls\": " << pipeline.inner().memo_calls()
       << ", \"nre_inner_memo_ns\": " << pipeline.inner().memo_ns()
       << ", \"warmup_nre_inner_memo_calls\": " << warm_nre_misses
       << ", \"warmup_nre_inner_memo_ns\": " << warm_nre_miss_ns
       << ", \"warmup_cnre_calls\": " << warm_cnre_calls
       << ", \"warmup_cnre_ns\": " << warm_cnre_ns
       << ", \"intra_tasks\": " << intra.executed
       << ", \"intra_steals\": " << intra.steals
       << ", \"worker_busy_ns\": " << g_worker_busy_ns.load()
       << ", \"trace_events\": " << tracer.event_count()
       << ", \"trace_dropped\": " << tracer.dropped_events()
       << ", \"layers\": {";
  for (int l = 0; l < kNumLayers; ++l) {
    if (l > 0) json << ", ";
    json << "\"" << kLayerNames[l] << "\": {\"self_ns\": "
         << g_layers[l].self_ns.load()
         << ", \"worker_self_ns\": " << g_layers[l].worker_self_ns.load()
         << ", \"total_ns\": " << g_layers[l].total_ns.load()
         << ", \"calls\": " << g_layers[l].calls.load() << "}";
  }
  json << "}}";
  Emit("trace " + json.str());
  return 0;
}

// ---------------------------------------------------------------------------
// load: open-loop traffic for `gdx_cli serve`
// ---------------------------------------------------------------------------

// Requests a closed-loop phase keeps outstanding: enough to keep the
// server's two default workers busy, far below its 64-slot queue.
constexpr size_t kWindow = 8;
// Upper bound on the saturation phase's request rate, which sizes its
// request table.
constexpr double kMaxSaturatedRate = 20000;

struct Request {
  size_t rung = 0;
  size_t file = 0;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t reply_ns = 0;
  int status = -1;  // -1 no reply, 0 result, else ServeError code
};

int RunLoad(const Flags& flags) {
  const Inputs hot = LoadInputs(flags.Need("hot"));
  const Inputs fresh = LoadInputs(flags.Need("fresh"));
  const std::string socket = flags.Need("socket");
  const size_t conns = static_cast<size_t>(flags.Int("conns", 3));
  // File ids: hot shapes first, then the fresh instances.
  const size_t num_files = hot.files.size() + fresh.files.size();
  auto text_of = [&](size_t file) -> const std::string& {
    return file < hot.files.size() ? hot.texts[file]
                                   : fresh.texts[file - hot.files.size()];
  };
  OutcomeLog log(flags.Str("report"), num_files);
  std::mutex log_mutex;

  std::vector<std::unique_ptr<serve::ExchangeClient>> clients;
  for (size_t c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<serve::ExchangeClient>());
    Status connected = clients.back()->ConnectUnix(socket);
    if (!connected.ok()) Die(connected.ToString());
  }

  // The schedule: rungs of evenly spaced requests ("rate:seconds,..."),
  // then --saturate seconds of closed loop. A --fresh-share of the
  // requests, evenly interleaved, are the next never-seen instance; the
  // rest deal the hot shapes from a seeded deck, each shape once before
  // the deck is reshuffled. Every seed thus offers the same mix of shapes;
  // the seed picks their order and the fresh instances.
  std::vector<Request> requests;
  std::mt19937_64 rng(static_cast<uint64_t>(flags.Int("seed", 1)));
  const double fresh_share = flags.Real("fresh-share", 0.0);
  size_t next_fresh = static_cast<size_t>(flags.Int("fresh-start", 0));
  size_t picked = 0;
  std::vector<size_t> deck;
  auto pick = [&](Request* q) {
    const bool fresh_turn =
        static_cast<size_t>((picked + 1) * fresh_share) >
        static_cast<size_t>(picked * fresh_share);
    ++picked;
    if (fresh_turn && next_fresh < fresh.files.size()) {
      q->file = hot.files.size() + next_fresh++;
      return;
    }
    if (deck.empty()) {
      for (size_t f = 0; f < hot.files.size(); ++f) deck.push_back(f);
      std::shuffle(deck.begin(), deck.end(), rng);
    }
    q->file = deck.back();
    deck.pop_back();
  };
  const bool warmup = flags.Has("warmup");
  if (warmup) {
    // Closed-loop warm-up: every hot shape --repeat times, then the first
    // --warmup-fresh fresh instances.
    for (int64_t r = 0; r < flags.Int("repeat", 1); ++r) {
      for (size_t f = 0; f < hot.files.size(); ++f) {
        Request q;
        q.file = f;
        requests.push_back(q);
      }
    }
    for (int64_t k = 0; k < flags.Int("warmup-fresh", 0) &&
                        next_fresh < fresh.files.size();
         ++k) {
      Request q;
      q.file = hot.files.size() + next_fresh++;
      requests.push_back(q);
    }
  }
  size_t num_rungs = 0;
  if (!warmup) {
    // Each rung ("rate:seconds") sends rate * seconds requests evenly
    // spaced: the offered load and its burstiness are the same for every
    // seed, which only picks the requests.
    double t = 0;
    std::istringstream spec(flags.Need("rungs"));
    std::string item;
    while (std::getline(spec, item, ',')) {
      const double rate = std::atof(item.c_str());
      const double seconds = std::atof(item.substr(item.find(':') + 1).c_str());
      const size_t n = static_cast<size_t>(rate * seconds + 0.5);
      for (size_t i = 0; i < n; ++i) {
        Request q;
        q.rung = num_rungs;
        q.due_ns = static_cast<int64_t>((t + (i + 0.5) / rate) * 1e9);
        pick(&q);
        requests.push_back(q);
      }
      t += seconds;
      ++num_rungs;
    }
  }
  const size_t scheduled = requests.size();
  const double saturate_s = flags.Real("saturate", 0);
  // Room for the closed-loop phase, whose requests are drawn as they are
  // sent; the readers index `requests` concurrently, so it never grows.
  requests.resize(scheduled +
                  static_cast<size_t>(saturate_s * kMaxSaturatedRate));

  std::vector<std::atomic<int64_t>> sent(conns);
  for (auto& s : sent) s.store(0);
  std::atomic<bool> sending_done{false};
  std::atomic<size_t> outstanding{0};
  std::vector<std::thread> readers;
  for (size_t c = 0; c < conns; ++c) {
    readers.emplace_back([&, c] {
      // Each connection's reader is the only thread that reads its
      // socket; the sender only writes it.
      int64_t received = 0;
      for (;;) {
        if (received == sent[c].load()) {
          if (sending_done.load()) break;
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        serve::ClientReply reply;
        Status read = clients[c]->ReadReply(&reply);
        if (!read.ok()) {
          std::fprintf(stderr, "load: connection %zu: %s\n", c,
                       read.ToString().c_str());
          return;
        }
        if (reply.id >= requests.size()) {
          std::fprintf(stderr, "load: connection-level error: %s\n",
                       reply.text.c_str());
          return;
        }
        ++received;
        --outstanding;
        Request& q = requests[reply.id];
        q.reply_ns = NowNs();
        q.status = reply.is_error ? static_cast<int>(reply.code) : 0;
        if (!reply.is_error) {
          std::lock_guard<std::mutex> lock(log_mutex);
          if (!log.Record(q.file, reply.text)) q.status = 1000;
        }
      }
    });
  }

  const int64_t t0 = NowNs() + 2000000;  // first due time, 2 ms ahead
  // Sends request `id`; false once the server is gone (a crash): the rest
  // of the schedule is lost, and the samples say which requests never got
  // a reply.
  auto send = [&](size_t id) {
    Request& q = requests[id];
    const size_t c = id % conns;
    q.send_ns = NowNs();
    Status status = clients[c]->SendRequest(id, text_of(q.file));
    if (!status.ok()) {
      std::fprintf(stderr, "load: send: %s\n", status.ToString().c_str());
      return false;
    }
    ++outstanding;
    sent[c].fetch_add(1);
    return true;
  };
  // Closed loop: waits until fewer than kWindow requests are outstanding
  // (or `until` passes, should the server stop replying).
  auto wait_for_window = [&](int64_t until) {
    while (outstanding.load() >= kWindow && NowNs() < until) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  };
  bool broken = false;
  for (size_t id = 0; id < scheduled && !broken; ++id) {
    Request& q = requests[id];
    if (warmup) {
      wait_for_window(INT64_MAX);
      q.due_ns = NowNs() - t0;
    } else {
      if (id == 0 || q.rung != requests[id - 1].rung) {
        Emit("rung " + std::to_string(q.rung));
      }
      const int64_t due = t0 + q.due_ns;
      while (NowNs() < due) {
        const int64_t left = due - NowNs();
        if (left > 200000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100000));
        }
      }
    }
    broken = !send(id);
  }
  size_t used = scheduled;
  if (!warmup) Emit("rung " + std::to_string(num_rungs));
  if (saturate_s > 0 && !broken) {
    // The saturation phase: kWindow requests outstanding for --saturate
    // seconds, so replies arrive at the rate the server sustains.
    const int64_t end = NowNs() + static_cast<int64_t>(saturate_s * 1e9);
    while (used < requests.size()) {
      wait_for_window(end);
      if (NowNs() >= end) break;
      Request& q = requests[used];
      q.rung = num_rungs;
      pick(&q);
      q.due_ns = NowNs() - t0;
      if (!send(used++)) {
        broken = true;
        break;
      }
    }
  }
  sending_done.store(true);
  for (std::thread& t : readers) t.join();
  log.Flush();
  if (flags.Has("shutdown") && !broken) {
    Status drained = clients[0]->Shutdown();
    if (!drained.ok()) Die("shutdown: " + drained.ToString());
  }

  std::ofstream samples(flags.Need("samples"));
  for (size_t id = 0; id < used; ++id) {
    const Request& q = requests[id];
    samples << q.rung << " " << q.file << " " << q.due_ns << " "
            << (q.send_ns - t0) << " "
            << (q.reply_ns > 0 ? q.reply_ns - t0 : -1) << " " << q.status
            << "\n";
  }
  Emit("done " + std::to_string(used) + " " +
       std::to_string(next_fresh));  // next_fresh: first fresh index unused
  return 0;
}

// ---------------------------------------------------------------------------
// persist: snapshot load/save cost of a checkpoint
// ---------------------------------------------------------------------------

int RunPersist(const Flags& flags) {
  const std::string path = flags.Need("checkpoint");
  const std::string scratch = flags.Need("scratch");
  std::vector<int64_t> load_ns, save_ns;
  for (int i = 0; i < 3; ++i) {
    EngineCache cache;
    int64_t t0 = NowNs();
    Status loaded = cache.LoadSnapshot(path);
    load_ns.push_back(NowNs() - t0);
    if (!loaded.ok()) Die("checkpoint does not load: " + loaded.ToString());
    t0 = NowNs();
    Status saved = cache.SaveSnapshot(scratch);
    save_ns.push_back(NowNs() - t0);
    if (!saved.ok()) Die("snapshot not saved: " + saved.ToString());
  }
  std::sort(load_ns.begin(), load_ns.end());
  std::sort(save_ns.begin(), save_ns.end());
  struct stat st;
  if (stat(path.c_str(), &st) != 0) Die("cannot stat " + path);
  Emit("persist " + std::to_string(load_ns[1]) + " " +
       std::to_string(save_ns[1]) + " " + std::to_string(st.st_size));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_driver info|run|trace|load|persist");
  const std::string mode = argv[1];
  Flags flags(argc, argv);
  if (mode == "info") {
#ifdef NDEBUG
    const char* asserts = "off";
#else
    const char* asserts = "on";
#endif
    Emit(std::string("build_type ") + PERFBENCH_BUILD_TYPE);
    Emit(std::string("compiler ") + __VERSION__);
    Emit(std::string("asserts ") + asserts);
    Emit("hardware_threads " + std::to_string(ThreadPool::DefaultThreads()));
    return 0;
  }
  if (mode == "run") return RunLoop(flags);
  if (mode == "trace") return RunTrace(flags);
  if (mode == "load") return RunLoad(flags);
  if (mode == "persist") return RunPersist(flags);
  Die("unknown mode " + mode);
}
