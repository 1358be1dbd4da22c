// Tests for the src/obs/ observability subsystem (ISSUE 6): histogram
// bucket boundaries, merge commutativity, sharded-vs-single-threaded
// recording equivalence, registry JSON round-trip, tracer balance and
// overflow behavior — plus the satellites: Metrics::ToString growth,
// per-scenario batch timings, and traced-run determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/batch_executor.h"
#include "engine/exchange_engine.h"
#include "obs/histogram.h"
#include "obs/stats_registry.h"
#include "obs/trace.h"
#include "workload/flights.h"

namespace gdx {
namespace {

using obs::HistogramLayout;
using obs::HistogramSnapshot;

// --- mini JSON parser --------------------------------------------------------
// Just enough JSON to round-trip the registry dump and the trace export.
// Numbers parse as double; test values stay below 2^53 so integer
// comparisons are exact.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  uint64_t U64() const { return static_cast<uint64_t>(number); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipSpace();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        char esc = text_[pos_++];
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'u': pos_ += 4; out->push_back('?'); break;
          default: out->push_back(esc);
        }
      } else {
        out->push_back(c);
      }
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipSpace();
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->object.emplace_back(std::move(key), std::move(value));
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipSpace();
      if (Consume(']')) return true;
      do {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->array.push_back(std::move(value));
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue v;
  EXPECT_TRUE(JsonParser(text).Parse(&v)) << "unparseable JSON: " << text;
  return v;
}

/// Deterministic pseudo-random 64-bit stream (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

// --- histogram layout --------------------------------------------------------

TEST(HistogramLayoutTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < HistogramLayout::kSubBuckets; ++v) {
    size_t i = HistogramLayout::BucketIndex(v);
    EXPECT_EQ(i, v);
    EXPECT_EQ(HistogramLayout::BucketLowerBound(i), v);
    EXPECT_EQ(HistogramLayout::BucketUpperBound(i), v);
  }
}

TEST(HistogramLayoutTest, BoundsInvertIndexAndTile) {
  for (size_t i = 0; i < HistogramLayout::kNumBuckets; ++i) {
    uint64_t lo = HistogramLayout::BucketLowerBound(i);
    uint64_t hi = HistogramLayout::BucketUpperBound(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(HistogramLayout::BucketIndex(lo), i);
    EXPECT_EQ(HistogramLayout::BucketIndex(hi), i);
    if (i > 0) {
      // Buckets tile the value axis with no gaps or overlaps.
      EXPECT_EQ(HistogramLayout::BucketUpperBound(i - 1) + 1, lo)
          << "bucket " << i;
    }
  }
  EXPECT_EQ(HistogramLayout::BucketIndex(~static_cast<uint64_t>(0)),
            HistogramLayout::kNumBuckets - 1);
}

TEST(HistogramLayoutTest, RelativeWidthAtMostQuarter) {
  for (size_t i = HistogramLayout::kSubBuckets;
       i < HistogramLayout::kNumBuckets; ++i) {
    uint64_t lo = HistogramLayout::BucketLowerBound(i);
    uint64_t width = HistogramLayout::BucketUpperBound(i) - lo + 1;
    EXPECT_LE(width, lo / HistogramLayout::kSubBuckets) << "bucket " << i;
  }
}

TEST(HistogramLayoutTest, IndexIsMonotonic) {
  Rng rng(7);
  for (int trial = 0; trial < 10000; ++trial) {
    uint64_t a = rng.Next();
    uint64_t b = rng.Next();
    if (a > b) std::swap(a, b);
    EXPECT_LE(HistogramLayout::BucketIndex(a), HistogramLayout::BucketIndex(b));
  }
}

// --- histogram snapshot ------------------------------------------------------

TEST(HistogramSnapshotTest, MergeIsCommutative) {
  Rng rng(42);
  HistogramSnapshot a, b;
  for (int i = 0; i < 5000; ++i) a.Record(rng.Next() >> (rng.Next() % 40));
  for (int i = 0; i < 3000; ++i) b.Record(rng.Next() >> (rng.Next() % 40));

  HistogramSnapshot ab = a;
  ab.Merge(b);
  HistogramSnapshot ba = b;
  ba.Merge(a);
  EXPECT_TRUE(ab == ba);
  EXPECT_EQ(ab.count, 8000u);
}

TEST(HistogramSnapshotTest, QuantilesAreDeterministicBucketBounds) {
  HistogramSnapshot h;
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);  // empty

  h.Record(1000);
  // A single value: every quantile reports it exactly (clamped to max).
  EXPECT_EQ(h.ValueAtQuantile(0.0), 1000u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 1000u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 1000u);

  HistogramSnapshot spread;
  for (uint64_t v = 1; v <= 100; ++v) spread.Record(v * 1000);
  // p50 falls in the bucket of 50'000; the reported value is that
  // bucket's upper bound — deterministic and within 25% of the true rank.
  uint64_t p50 = spread.ValueAtQuantile(0.50);
  EXPECT_EQ(p50, HistogramLayout::BucketUpperBound(
                     HistogramLayout::BucketIndex(50000)));
  EXPECT_EQ(spread.ValueAtQuantile(0.0), 1000u);
  EXPECT_EQ(spread.ValueAtQuantile(1.0), 100000u);  // clamped to max
  EXPECT_EQ(spread.MeanNs(), 50500.0);
}

// --- sharded recording -------------------------------------------------------

TEST(StatsRegistryTest, ShardedRecordingEqualsSingleThreaded) {
  // The same value stream recorded through 1, 2, and 8 workers must merge
  // to the identical snapshot a plain single-threaded recording produces.
  Rng seed_rng(99);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(seed_rng.Next() >> (seed_rng.Next() % 48));
  }
  HistogramSnapshot reference;
  for (uint64_t v : values) reference.Record(v);

  for (size_t workers : {1u, 2u, 8u}) {
    obs::StatsRegistry registry;
    obs::Histogram* hist = registry.GetHistogram("test.latency_ns");
    obs::Counter* counter = registry.GetCounter("test.count");
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (size_t i = w; i < values.size(); i += workers) {
          hist->Record(values[i]);
          counter->Increment();
        }
      });
    }
    for (std::thread& t : threads) t.join();

    EXPECT_TRUE(hist->Snapshot() == reference) << workers << " workers";
    EXPECT_EQ(counter->Value(), values.size()) << workers << " workers";
  }
}

TEST(StatsRegistryTest, HandlesAreStableAndShared) {
  obs::StatsRegistry registry;
  obs::Counter* a = registry.GetCounter("x");
  obs::Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(3);
  b->Add(4);
  EXPECT_EQ(registry.GetCounter("x")->Value(), 7u);
  registry.GetGauge("g")->Set(-5);
  EXPECT_EQ(registry.GetGauge("g")->Value(), -5);
}

// --- registry JSON -----------------------------------------------------------

TEST(StatsRegistryTest, JsonRoundTrip) {
  obs::StatsRegistry registry;
  registry.GetCounter("engine.solve.count")->Add(12);
  registry.GetCounter("engine.cache.nre.hits")->Add(34);
  registry.GetGauge("pool.intra.queue_depth")->Set(5);
  obs::Histogram* hist = registry.GetHistogram("engine.solve.total_ns");
  for (uint64_t v : {100u, 200u, 300u, 400u, 4000u}) hist->Record(v);

  JsonValue root = ParseJsonOrDie(registry.ToJson());
  ASSERT_EQ(root.kind, JsonValue::kObject);
  EXPECT_EQ(root.Find("schema")->U64(), obs::kTelemetrySchemaVersion);

  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("engine.solve.count")->U64(), 12u);
  EXPECT_EQ(counters->Find("engine.cache.nre.hits")->U64(), 34u);

  EXPECT_EQ(root.Find("gauges")->Find("pool.intra.queue_depth")->number, 5.0);

  const JsonValue* h = root.Find("histograms")->Find("engine.solve.total_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->U64(), 5u);
  EXPECT_EQ(h->Find("sum")->U64(), 5000u);
  EXPECT_EQ(h->Find("min")->U64(), 100u);
  EXPECT_EQ(h->Find("max")->U64(), 4000u);
  HistogramSnapshot expect_snapshot = hist->Snapshot();
  EXPECT_EQ(h->Find("p50")->U64(), expect_snapshot.ValueAtQuantile(0.50));
  EXPECT_EQ(h->Find("p99")->U64(), expect_snapshot.ValueAtQuantile(0.99));
  // Bucket pairs are [lower_bound, count], non-empty only, summing to count.
  const JsonValue* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  uint64_t total = 0;
  for (const JsonValue& pair : buckets->array) {
    ASSERT_EQ(pair.array.size(), 2u);
    EXPECT_GT(pair.array[1].U64(), 0u);
    total += pair.array[1].U64();
  }
  EXPECT_EQ(total, 5u);

  // Deterministic: a second dump of an untouched registry is identical.
  EXPECT_EQ(registry.ToJson(), registry.ToJson());
}

// --- tracer ------------------------------------------------------------------

TEST(TracerTest, ExportsBalancedNestedSpans) {
  obs::Tracer tracer;
  obs::Tracer::SetGlobal(&tracer);
  {
    GDX_TRACE_SPAN("outer", "test");
    {
      GDX_TRACE_SPAN("inner", "test", 7u);
    }
    { GDX_TRACE_SPAN("inner2", "test"); }
  }
  std::thread other([] {
    GDX_TRACE_SPAN("worker", "test", 1u);
  });
  other.join();
  obs::Tracer::SetGlobal(nullptr);

  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  JsonValue root = ParseJsonOrDie(tracer.ToJson());
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  // Per-tid: B/E strictly balanced, LIFO name-matched, M metadata allowed.
  std::map<uint64_t, std::vector<std::string>> stacks;
  size_t begins = 0;
  bool saw_inner_arg = false;
  for (const JsonValue& e : events->array) {
    const std::string& phase = e.Find("ph")->str;
    if (phase == "M") continue;
    uint64_t tid = e.Find("tid")->U64();
    if (phase == "B") {
      ++begins;
      stacks[tid].push_back(e.Find("name")->str);
      if (e.Find("name")->str == "inner") {
        const JsonValue* args = e.Find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_EQ(args->Find("arg")->U64(), 7u);
        saw_inner_arg = true;
      }
    } else {
      ASSERT_EQ(phase, "E");
      ASSERT_FALSE(stacks[tid].empty()) << "unbalanced E on tid " << tid;
      stacks[tid].pop_back();
    }
  }
  EXPECT_EQ(begins, 4u);
  EXPECT_TRUE(saw_inner_arg);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed spans on tid " << tid;
  }
}

TEST(TracerTest, OverflowDropsAndCounts) {
  obs::Tracer tracer(/*events_per_thread=*/4);
  obs::Tracer::SetGlobal(&tracer);
  for (int i = 0; i < 10; ++i) {
    GDX_TRACE_SPAN("tick", "test");
  }
  obs::Tracer::SetGlobal(nullptr);
  EXPECT_EQ(tracer.event_count(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  // The export still parses and stays balanced.
  JsonValue root = ParseJsonOrDie(tracer.ToJson());
  EXPECT_EQ(root.Find("traceEvents")->array.size(), 4u * 2 + 1);  // B+E+M
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  tracer.set_enabled(false);
  obs::Tracer::SetGlobal(&tracer);
  { GDX_TRACE_SPAN("ignored", "test"); }
  obs::Tracer::SetGlobal(nullptr);
  EXPECT_EQ(tracer.event_count(), 0u);
}

// --- Metrics::ToString growth (satellite) ------------------------------------

TEST(MetricsTest, ToStringNeverTruncates) {
  // The old fixed 1024-byte snprintf buffer silently clipped once enough
  // counters carried large values; the incremental builder must render
  // every field down to the last line no matter how wide they get.
  Metrics m;
  m.scenarios = ~static_cast<size_t>(0);
  m.total_seconds = 1e9;
  m.chase_seconds = m.existence_seconds = m.certain_seconds = 1e9;
  m.minimize_seconds = m.verify_seconds = 1e9;
  m.chase_triggers = m.chase_merges = ~static_cast<size_t>(0);
  m.candidates_tried = m.solutions_enumerated = ~static_cast<size_t>(0);
  m.candidates_pruned = ~static_cast<size_t>(0);
  m.nre_cache_hits = m.nre_cache_misses = ~static_cast<uint64_t>(0);
  m.answer_cache_hits = m.answer_cache_misses = ~static_cast<uint64_t>(0);
  m.compile_cache_hits = m.compile_cache_misses = ~static_cast<uint64_t>(0);
  m.chase_cache_hits = m.chase_cache_misses = ~static_cast<uint64_t>(0);
  m.nre_cache_restored_hits = ~static_cast<uint64_t>(0);
  m.answer_cache_restored_hits = ~static_cast<uint64_t>(0);
  m.compile_cache_restored_hits = ~static_cast<uint64_t>(0);
  m.chase_cache_restored_hits = ~static_cast<uint64_t>(0);

  std::string s = m.ToString();
  // All 18 max-valued integer fields render in full (header + 5 work +
  // 8 cache + 4 warm), and the final field of the final line survived —
  // nothing was clipped to a buffer size.
  size_t occurrences = 0;
  for (size_t pos = s.find("18446744073709551615"); pos != std::string::npos;
       pos = s.find("18446744073709551615", pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 18u);
  EXPECT_NE(s.find("chase=18446744073709551615\n"), std::string::npos);
  EXPECT_EQ(s.back(), '\n');
}

// --- batch timing + registry integration (satellites) ------------------------

std::vector<Scenario> SmallBatch() {
  std::vector<Scenario> batch;
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kSameAs));
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kNone));
  batch.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
  return batch;
}

TEST(BatchObservabilityTest, PerScenarioTimingsAndSummary) {
  BatchOptions options;
  options.num_threads = 2;
  BatchExecutor executor(options);
  std::vector<Scenario> batch = SmallBatch();
  BatchReport report = executor.SolveAll(batch);

  ASSERT_EQ(report.timings.size(), batch.size());
  for (const ScenarioTiming& t : report.timings) {
    EXPECT_GT(t.execute_seconds, 0.0);
    EXPECT_GE(t.queue_wait_seconds, 0.0);
  }
  EXPECT_EQ(report.ExecuteHistogram().count, batch.size());
  EXPECT_EQ(report.QueueWaitHistogram().count, batch.size());

  std::string summary = report.Summary();
  EXPECT_NE(summary.find("latency: execute p50="), std::string::npos);
  EXPECT_NE(summary.find("queue-wait p50="), std::string::npos);
}

TEST(BatchObservabilityTest, RegistryCollectsEngineAndBatchMetrics) {
  obs::StatsRegistry registry;
  BatchOptions options;
  options.num_threads = 2;
  options.engine.stats = &registry;
  BatchExecutor executor(options);
  std::vector<Scenario> batch = SmallBatch();
  BatchReport report = executor.SolveAll(batch);
  ASSERT_EQ(report.errors, 0u);

  EXPECT_EQ(registry.GetCounter("engine.solve.count")->Value(), batch.size());
  EXPECT_EQ(registry.GetHistogram("engine.solve.total_ns")->Snapshot().count,
            batch.size());
  EXPECT_EQ(registry.GetHistogram("batch.execute_ns")->Snapshot().count,
            batch.size());
  EXPECT_EQ(registry.GetCounter("pool.batch.executed")->Value(), batch.size());
  // The registry's cache counters reproduce the report's exact attribution.
  EXPECT_EQ(registry.GetCounter("engine.cache.nre.hits")->Value(),
            report.total.nre_cache_hits);
  EXPECT_EQ(registry.GetCounter("engine.cache.chase.misses")->Value(),
            report.total.chase_cache_misses);
  // And the dump of all of it is valid JSON.
  JsonValue root = ParseJsonOrDie(registry.ToJson());
  EXPECT_EQ(root.Find("counters")->Find("engine.solve.count")->U64(),
            batch.size());
}

TEST(BatchObservabilityTest, TracingNeverChangesOutcomes) {
  std::vector<std::string> baseline;
  {
    BatchExecutor executor(BatchOptions{});
    std::vector<Scenario> batch = SmallBatch();
    BatchReport report = executor.SolveAll(batch);
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      ASSERT_TRUE(report.outcomes[i].ok());
      baseline.push_back(report.outcomes[i]->ToString(*batch[i].universe,
                                                      *batch[i].alphabet));
    }
  }

  obs::Tracer tracer;
  obs::Tracer::SetGlobal(&tracer);
  {
    BatchExecutor executor(BatchOptions{});
    std::vector<Scenario> batch = SmallBatch();
    BatchReport report = executor.SolveAll(batch);
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      ASSERT_TRUE(report.outcomes[i].ok());
      EXPECT_EQ(report.outcomes[i]->ToString(*batch[i].universe,
                                             *batch[i].alphabet),
                baseline[i]);
    }
  }
  obs::Tracer::SetGlobal(nullptr);

  // The traced run produced real spans, including the Solve stages.
  EXPECT_GT(tracer.event_count(), 0u);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"batch.solve_all\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"scenario\""), std::string::npos);
}

// --- thread pool stats (tentpole: pool gauges) -------------------------------

TEST(ThreadPoolStatsTest, CountsSubmittedAndExecuted) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Wait();
  ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.executed, 64u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace gdx
