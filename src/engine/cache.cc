#include "engine/cache.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "graph/graph_view.h"
#include "obs/trace.h"
#include "graph/isomorphism.h"
#include "graph/nre.h"
#include "persist/wire.h"

namespace gdx {
std::string EngineCache::NreKey(const NrePtr& nre, const Graph& g) {
  // The NRE's raw structure (kinds + symbol ids, no names; see
  // AppendNreRawSignature) appended to the graph's exact raw signature.
  std::string key = g.RawSignature();
  AppendNreRawSignature(*nre, &key);
  return key;
}

namespace {

constexpr uint64_t kNullMarker = ~0ull;  // nulls are renamed freely

uint64_t NullBlindRaw(Value v) {
  return v.is_constant() ? v.raw() : kNullMarker;
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Shard i's slice of a global cap: cap/S entries plus one of the cap%S
/// remainder slots, so the shard quotas sum exactly to the cap and the
/// global entry count can never exceed it. A global cap of 0 (unbounded)
/// maps to the SIZE_MAX sentinel — a literal per-shard quota of 0 must
/// mean "evict immediately" (pathological cap < num_shards), not
/// "unbounded", or tiny caps would silently stop bounding anything.
size_t ShardQuota(size_t cap, size_t shard, size_t num_shards) {
  if (cap == 0) return std::numeric_limits<size_t>::max();
  return cap / num_shards + (shard < cap % num_shards ? 1 : 0);
}

}  // namespace

EngineCache::EngineCache(EngineCacheOptions options) : options_(options) {
  size_t n = options_.num_shards == 0 ? 1 : options_.num_shards;
  n = std::min<size_t>(RoundUpPow2(n), 256);
  options_.num_shards = n;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    Shard& shard = *shards_.back();
    shard.max_nre_entries = ShardQuota(options_.max_nre_entries, i, n);
    shard.max_answer_keys = ShardQuota(options_.max_answer_keys, i, n);
    shard.max_compiled_entries =
        ShardQuota(options_.max_compiled_entries, i, n);
    shard.max_chased_entries = ShardQuota(options_.max_chased_entries, i, n);
  }
}

EngineCache::Shard& EngineCache::ShardFor(const std::string& key) const {
  // FNV-1a over the full key (keys are content signatures, already well
  // mixed); shard count is a power of two, so masking is exact.
  return *shards_[Fnv1a64(key) & (shards_.size() - 1)];
}

std::string EngineCache::AnswerKey(const CnreQuery& query, const Graph& g) {
  std::string key;
  key.reserve(64 + g.num_edges() * 24);
  // Query structure: atoms (term, raw NRE, term) + head columns.
  AppendRawU64(query.atoms().size(), &key);
  for (const CnreAtom& atom : query.atoms()) {
    AppendTermRawSignature(atom.x, &key);
    AppendNreRawSignature(*atom.nre, &key);
    AppendTermRawSignature(atom.y, &key);
  }
  AppendRawU64(query.head().size(), &key);
  for (VarId v : query.head()) AppendRawU64(v, &key);
  // Null-blind graph shape: sorted edge triples and isolated-node markers
  // with every null replaced by one marker. Equal keys are a necessary
  // condition for null-renaming isomorphism; LookupAnswers verifies.
  std::vector<std::string> parts;
  parts.reserve(g.num_edges() + g.num_nodes());
  for (const Edge& e : g.edges()) {
    std::string part;
    AppendRawU64(NullBlindRaw(e.src), &part);
    AppendRawU64(e.label, &part);
    AppendRawU64(NullBlindRaw(e.dst), &part);
    parts.push_back(std::move(part));
  }
  for (Value v : g.nodes()) {
    std::string part(1, 'n');
    AppendRawU64(NullBlindRaw(v), &part);
    parts.push_back(std::move(part));
  }
  std::sort(parts.begin(), parts.end());
  AppendRawU64(g.num_nodes(), &key);
  AppendRawU64(g.num_edges(), &key);
  for (const std::string& part : parts) key += part;
  return key;
}

namespace {

/// The calling thread's per-solve attribution sink (ISSUE 2 satellite).
/// One thread serves one solve at a time — the engine installs the sink
/// around Solve and around every intra-solve worker's run.
thread_local PerSolveCacheStats* g_solve_sink = nullptr;

}  // namespace

ScopedCacheAttribution::ScopedCacheAttribution(PerSolveCacheStats* sink)
    : previous_(g_solve_sink) {
  g_solve_sink = sink;
}

ScopedCacheAttribution::~ScopedCacheAttribution() {
  g_solve_sink = previous_;
}

void EngineCache::TouchNre(Shard& shard, NreEntry& entry) {
  shard.nre_lru.splice(shard.nre_lru.begin(), shard.nre_lru, entry.lru);
}

void EngineCache::TouchAnswers(Shard& shard, AnswerBucket& bucket) {
  shard.answer_lru.splice(shard.answer_lru.begin(), shard.answer_lru,
                          bucket.lru);
}

void EngineCache::TouchCompiled(Shard& shard, CompiledEntry& entry) {
  shard.compiled_lru.splice(shard.compiled_lru.begin(), shard.compiled_lru,
                            entry.lru);
}

void EngineCache::TouchChased(Shard& shard, ChasedEntry& entry) {
  shard.chased_lru.splice(shard.chased_lru.begin(), shard.chased_lru,
                          entry.lru);
}

void EngineCache::EvictOverCap(Shard& shard) {
  // Called with the shard's mutex held. LRU keys fall off the back of
  // each per-shard list. Quotas use SIZE_MAX for unbounded, so a plain
  // size comparison covers every case (including a literal quota of 0).
  while (shard.nre_memo.size() > shard.max_nre_entries) {
    shard.nre_memo.erase(shard.nre_lru.back());
    shard.nre_lru.pop_back();
    ++shard.stats.nre_evictions;
  }
  while (shard.answer_memo.size() > shard.max_answer_keys) {
    auto it = shard.answer_memo.find(shard.answer_lru.back());
    shard.answer_entries -= it->second.entries.size();
    shard.answer_memo.erase(it);
    shard.answer_lru.pop_back();
    ++shard.stats.answer_evictions;
  }
  while (shard.compiled_memo.size() > shard.max_compiled_entries) {
    shard.compiled_memo.erase(shard.compiled_lru.back());
    shard.compiled_lru.pop_back();
    ++shard.stats.compile_evictions;
  }
  while (shard.chased_memo.size() > shard.max_chased_entries) {
    shard.chased_memo.erase(shard.chased_lru.back());
    shard.chased_lru.pop_back();
    ++shard.stats.chase_evictions;
  }
}

ChasedScenarioPtr EngineCache::LookupChased(const std::string& key) {
  bool compiled = false;
  return GetOrCompileChased(key, nullptr, nullptr, &compiled);
}

ChasedScenarioPtr EngineCache::GetOrCompileChased(
    const std::string& key,
    const std::function<ChasedScenarioPtr()>& compile,
    const CancellationToken* cancel, bool* compiled) {
  Shard& shard = ShardFor(key);
  std::unique_lock<std::mutex> lock(shard.mutex);
  // Sit out a running chase of this key, polling the caller's own token:
  // a canceled solve never waits on another solve's chase.
  while (shard.chases_in_flight.count(key) > 0 &&
         (cancel == nullptr || !cancel->stop_requested())) {
    shard.chase_done.wait_for(lock, std::chrono::milliseconds(1));
  }
  *compiled = false;
  auto it = shard.chased_memo.find(key);
  if (it != shard.chased_memo.end()) {
    ++shard.stats.chase_hits;
    if (it->second.restored) ++shard.stats.chase_restored_hits;
    if (g_solve_sink != nullptr) {
      g_solve_sink->chase_hits.fetch_add(1, std::memory_order_relaxed);
      if (it->second.restored) {
        g_solve_sink->chase_restored_hits.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    TouchChased(shard, it->second);
    return it->second.artifact;
  }
  ++shard.stats.chase_misses;
  if (g_solve_sink != nullptr) {
    g_solve_sink->chase_misses.fetch_add(1, std::memory_order_relaxed);
  }
  if (!compile) return nullptr;
  *compiled = true;
  // A canceled waiter compiles beside the running chase, not as leader.
  const bool lead = shard.chases_in_flight.insert(key).second;
  lock.unlock();
  ChasedScenarioPtr artifact = compile();
  if (!artifact->canceled) StoreChased(key, artifact);
  if (lead) {
    lock.lock();
    shard.chases_in_flight.erase(key);
    shard.chase_done.notify_all();
  }
  return artifact;
}

void EngineCache::StoreChased(const std::string& key,
                              ChasedScenarioPtr artifact) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.chased_memo.find(key);
  if (it != shard.chased_memo.end()) {
    TouchChased(shard, it->second);
    return;  // racing publishers compiled the same artifact; keep the first
  }
  shard.chased_lru.push_front(key);
  shard.chased_memo.emplace(
      key, ChasedEntry{std::move(artifact), shard.chased_lru.begin()});
  EvictOverCap(shard);
}

CompiledNrePtr EngineCache::GetOrCompile(const NrePtr& nre) {
  // Each call counts as exactly one hit or one miss, decided by whether
  // the caller was served from the memo — so hits + misses always equals
  // the number of GetOrCompile calls, like the other memos.
  auto count_hit = [](Shard& shard, bool restored) {
    ++shard.stats.compile_hits;  // shard mutex held
    if (restored) ++shard.stats.compile_restored_hits;
    if (g_solve_sink != nullptr) {
      g_solve_sink->compile_hits.fetch_add(1, std::memory_order_relaxed);
      if (restored) {
        g_solve_sink->compile_restored_hits.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
  };
  std::string key = NreRawSignature(*nre);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.compiled_memo.find(key);
    if (it != shard.compiled_memo.end()) {
      count_hit(shard, it->second.restored);
      TouchCompiled(shard, it->second);
      return it->second.compiled;
    }
  }
  // Compile outside the lock: lowering is pure and may recurse into nested
  // tests; holding the mutex would serialize every worker behind it.
  CompiledNrePtr compiled;
  {
    GDX_TRACE_SPAN("cache.compile_nre", "cache");
    compiled = CompiledNre::Compile(nre);
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.compiled_memo.find(key);
  if (it != shard.compiled_memo.end()) {
    // A racing worker published first; keep its plan (entries are
    // interchangeable — compilation is deterministic) and count the call
    // as the memo serving it.
    count_hit(shard, it->second.restored);
    TouchCompiled(shard, it->second);
    return it->second.compiled;
  }
  ++shard.stats.compile_misses;
  if (g_solve_sink != nullptr) {
    g_solve_sink->compile_misses.fetch_add(1, std::memory_order_relaxed);
  }
  shard.compiled_lru.push_front(key);
  shard.compiled_memo.emplace(
      std::move(key), CompiledEntry{compiled, shard.compiled_lru.begin()});
  EvictOverCap(shard);
  return compiled;
}

bool EngineCache::LookupNre(const std::string& key, BinaryRelation* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.nre_memo.find(key);
  if (it == shard.nre_memo.end()) {
    ++shard.stats.nre_misses;
    if (g_solve_sink != nullptr) {
      g_solve_sink->nre_misses.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  ++shard.stats.nre_hits;
  if (it->second.restored) ++shard.stats.nre_restored_hits;
  if (g_solve_sink != nullptr) {
    g_solve_sink->nre_hits.fetch_add(1, std::memory_order_relaxed);
    if (it->second.restored) {
      g_solve_sink->nre_restored_hits.fetch_add(1,
                                                std::memory_order_relaxed);
    }
  }
  TouchNre(shard, it->second);
  *out = it->second.relation;
  return true;
}

void EngineCache::StoreNre(std::string key, BinaryRelation relation) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.nre_memo.find(key);
  if (it != shard.nre_memo.end()) {
    TouchNre(shard, it->second);
    return;  // racing workers computed the same relation; keep the first
  }
  shard.nre_lru.push_front(key);
  shard.nre_memo.emplace(std::move(key),
                         NreEntry{std::move(relation),
                                  shard.nre_lru.begin()});
  EvictOverCap(shard);
}

bool EngineCache::LookupAnswers(const std::string& key, const Graph& g,
                                std::vector<std::vector<Value>>* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.answer_memo.find(key);
  if (it != shard.answer_memo.end()) {
    for (const AnswerEntry& entry : it->second.entries) {
      if (IsomorphicUpToNulls(g, entry.graph)) {
        ++shard.stats.answer_hits;
        if (entry.restored) ++shard.stats.answer_restored_hits;
        if (g_solve_sink != nullptr) {
          g_solve_sink->answer_hits.fetch_add(1, std::memory_order_relaxed);
          if (entry.restored) {
            g_solve_sink->answer_restored_hits.fetch_add(
                1, std::memory_order_relaxed);
          }
        }
        TouchAnswers(shard, it->second);
        *out = entry.answers;
        return true;
      }
    }
  }
  ++shard.stats.answer_misses;
  if (g_solve_sink != nullptr) {
    g_solve_sink->answer_misses.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void EngineCache::StoreAnswers(const std::string& key, const Graph& g,
                               std::vector<std::vector<Value>> answers) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.answer_memo.find(key);
  if (it == shard.answer_memo.end()) {
    shard.answer_lru.push_front(key);
    it = shard.answer_memo
             .emplace(key, AnswerBucket{{}, shard.answer_lru.begin()})
             .first;
  } else {
    TouchAnswers(shard, it->second);
  }
  AnswerBucket& bucket = it->second;
  if (bucket.entries.size() >= kMaxAnswerEntriesPerKey) return;
  bucket.entries.push_back(AnswerEntry{g, std::move(answers), false});
  ++shard.answer_entries;
  EvictOverCap(shard);
}

CacheStats EngineCache::stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.Accumulate(shard->stats);
  }
  return out;
}

CacheSizes EngineCache::sizes() const {
  CacheSizes out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    out.nre_entries += shard->nre_memo.size();
    out.answer_keys += shard->answer_memo.size();
    out.answer_entries += shard->answer_entries;
    out.compiled_entries += shard->compiled_memo.size();
    out.chased_entries += shard->chased_memo.size();
  }
  return out;
}

void EngineCache::ResetStats() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->stats = CacheStats{};
  }
}

WarmState EngineCache::ExportWarmState() const {
  WarmState state;
  // Shard-major export: shard 0..S-1, each least- → most-recently used
  // (every per-shard LRU list runs most → least recent front to back).
  // ImportWarmState routes keys back to their shard by the same hash, so
  // a sequential restore rebuilds the exact per-shard recency order and
  // save → load → save is byte-stable.
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.nre_lru.rbegin(); it != shard.nre_lru.rend();
         ++it) {
      state.nre.emplace_back(*it, shard.nre_memo.at(*it).relation);
    }
    for (auto it = shard.answer_lru.rbegin(); it != shard.answer_lru.rend();
         ++it) {
      const AnswerBucket& bucket = shard.answer_memo.at(*it);
      std::vector<WarmState::AnswerEntry> entries;
      entries.reserve(bucket.entries.size());
      for (const AnswerEntry& entry : bucket.entries) {
        entries.push_back(
            WarmState::AnswerEntry{entry.graph, entry.answers});
      }
      state.answers.emplace_back(*it, std::move(entries));
    }
    for (auto it = shard.compiled_lru.rbegin();
         it != shard.compiled_lru.rend(); ++it) {
      state.compiled.emplace_back(*it, shard.compiled_memo.at(*it).compiled);
    }
    for (auto it = shard.chased_lru.rbegin(); it != shard.chased_lru.rend();
         ++it) {
      state.chased.emplace_back(*it, shard.chased_memo.at(*it).artifact);
    }
  }
  return state;
}

SnapshotRestoreStats EngineCache::ImportWarmState(WarmState state) {
  SnapshotRestoreStats restored;
  // Restored entries merge *under* live ones: a snapshot is by
  // definition older than anything this process computed itself, so
  // every restored key lands at the cold end of its shard's LRU list —
  // a mid-life WarmStart can never evict the live working set. Entries
  // arrive least- to most-recently used per shard; appending them in
  // reverse (most-recent first) reproduces the snapshot's internal
  // recency order below the live entries. Keys the cache already holds
  // win over the snapshot. Each entry locks only its own shard, so a
  // load can proceed while other shards keep serving.
  uint64_t evictions_before = 0;
  uint64_t evictions_after = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    evictions_before += shard->stats.evictions();
  }
  for (auto it = state.nre.rbegin(); it != state.nre.rend(); ++it) {
    auto& [key, relation] = *it;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.nre_memo.find(key) != shard.nre_memo.end()) continue;
    shard.nre_lru.push_back(key);
    shard.nre_memo.emplace(std::move(key),
                           NreEntry{std::move(relation),
                                    std::prev(shard.nre_lru.end()), true});
    ++restored.nre_entries;
  }
  for (auto it = state.answers.rbegin(); it != state.answers.rend(); ++it) {
    auto& [key, entries] = *it;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.answer_memo.find(key) != shard.answer_memo.end()) continue;
    shard.answer_lru.push_back(key);
    AnswerBucket bucket;
    bucket.lru = std::prev(shard.answer_lru.end());
    for (WarmState::AnswerEntry& entry : entries) {
      if (bucket.entries.size() >= kMaxAnswerEntriesPerKey) break;
      bucket.entries.push_back(AnswerEntry{std::move(entry.graph),
                                           std::move(entry.answers), true});
    }
    restored.answer_entries += bucket.entries.size();
    shard.answer_entries += bucket.entries.size();
    shard.answer_memo.emplace(std::move(key), std::move(bucket));
    ++restored.answer_keys;
  }
  for (auto it = state.compiled.rbegin(); it != state.compiled.rend();
       ++it) {
    auto& [key, automaton] = *it;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.compiled_memo.find(key) != shard.compiled_memo.end()) {
      continue;
    }
    shard.compiled_lru.push_back(key);
    shard.compiled_memo.emplace(
        std::move(key),
        CompiledEntry{std::move(automaton),
                      std::prev(shard.compiled_lru.end()), true});
    ++restored.compiled_entries;
  }
  for (auto it = state.chased.rbegin(); it != state.chased.rend(); ++it) {
    auto& [key, artifact] = *it;
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.chased_memo.find(key) != shard.chased_memo.end()) continue;
    shard.chased_lru.push_back(key);
    shard.chased_memo.emplace(
        std::move(key),
        ChasedEntry{std::move(artifact), std::prev(shard.chased_lru.end()),
                    true});
    ++restored.chased_entries;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    EvictOverCap(*shard);
    evictions_after += shard->stats.evictions();
  }
  restored.evicted_on_load =
      static_cast<size_t>(evictions_after - evictions_before);
  return restored;
}

Status EngineCache::SaveSnapshot(const std::string& path) const {
  GDX_TRACE_SPAN("snapshot.save", "persist");
  return WriteSnapshotFile(path, ExportWarmState());
}

Status EngineCache::LoadSnapshot(const std::string& path,
                                 SnapshotRestoreStats* restored) {
  GDX_TRACE_SPAN("snapshot.load", "persist");
  Result<WarmState> state = ReadSnapshotFile(path);
  if (!state.ok()) return state.status();
  SnapshotRestoreStats stats = ImportWarmState(std::move(state).value());
  if (restored != nullptr) *restored = stats;
  return Status::Ok();
}

void EngineCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->nre_memo.clear();
    shard->nre_lru.clear();
    shard->answer_memo.clear();
    shard->answer_lru.clear();
    shard->answer_entries = 0;
    shard->compiled_memo.clear();
    shard->compiled_lru.clear();
    shard->chased_memo.clear();
    shard->chased_lru.clear();
    shard->stats = CacheStats{};
  }
}

BinaryRelation CachingNreEvaluator::Eval(const NrePtr& nre,
                                         const Graph& g) const {
  GDX_TRACE_SPAN("cache.nre_eval", "cache");
  std::string key = EngineCache::NreKey(nre, g);
  BinaryRelation relation;
  if (cache_->LookupNre(key, &relation)) return relation;
  relation = base_->Eval(nre, g);
  cache_->StoreNre(std::move(key), relation);
  return relation;
}

BinaryRelation CachingNreEvaluator::EvalOnView(const NrePtr& nre,
                                               const GraphView& view) const {
  GDX_TRACE_SPAN("cache.nre_eval", "cache");
  std::string key = EngineCache::NreKey(nre, view.graph());
  BinaryRelation relation;
  if (cache_->LookupNre(key, &relation)) return relation;
  relation = base_->EvalOnView(nre, view);
  cache_->StoreNre(std::move(key), relation);
  return relation;
}

BinaryRelation CachingNreEvaluator::EvalDeferred(
    const NrePtr& nre, const Graph& g,
    const std::function<const GraphView&()>& view) const {
  std::string key = EngineCache::NreKey(nre, g);
  BinaryRelation relation;
  if (cache_->LookupNre(key, &relation)) return relation;
  relation = base_->EvalDeferred(nre, g, view);
  cache_->StoreNre(std::move(key), relation);
  return relation;
}

}  // namespace gdx
