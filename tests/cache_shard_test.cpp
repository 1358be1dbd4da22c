// ISSUE 7 cache-sharding coverage: the EngineCache's memos are
// partitioned into num_shards lock shards by key hash. These tests pin
// the observable contracts of that refactor — concurrent mixed traffic
// accounts exactly (hits + misses == lookups, across every shard
// count), global caps bound the summed shard sizes, per-solve counter
// attribution still sums exactly under sharding, NRE-memo keys of one
// shared graph are race-free, and solve outputs are byte-identical
// whatever the shard count. The whole file runs under
// the CI TSan leg: the per-shard mutexes must make every public method
// data-race-free.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/cache.h"
#include "engine/exchange_engine.h"
#include "common/rng.h"
#include "graph/nre.h"
#include "workload/flights.h"
#include "workload/random_graph.h"

namespace gdx {
namespace {

EngineCacheOptions ShardedOptions(size_t shards) {
  EngineCacheOptions options;
  options.num_shards = shards;
  return options;
}

/// Deterministic key set that provably spreads over shards: distinct
/// strings hash to distinct FNV values, and with enough keys every
/// shard of an 8-way cache receives some.
std::vector<std::string> MakeKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(i * 2654435761u));
  }
  return keys;
}

TEST(CacheShardTest, ShardCountRoundsToPowerOfTwoAndClamps) {
  EXPECT_EQ(EngineCache(ShardedOptions(0)).num_shards(), 1u);
  EXPECT_EQ(EngineCache(ShardedOptions(1)).num_shards(), 1u);
  EXPECT_EQ(EngineCache(ShardedOptions(3)).num_shards(), 4u);
  EXPECT_EQ(EngineCache(ShardedOptions(8)).num_shards(), 8u);
  EXPECT_EQ(EngineCache(ShardedOptions(300)).num_shards(), 256u);
}

/// Concurrent mixed hit/miss traffic: every lookup counts exactly once
/// somewhere — summed hits + misses across shards equals the number of
/// lookups issued, and live sizes equal the distinct key count. The
/// same invariant holds for the single-shard cache running the same
/// schedule, so sharding changes contention, not accounting.
TEST(CacheShardTest, ConcurrentTrafficTotalsMatchSingleShard) {
  constexpr size_t kThreads = 4;
  constexpr size_t kKeys = 64;
  constexpr size_t kRounds = 8;
  const std::vector<std::string> keys = MakeKeys(kKeys);

  auto run = [&](EngineCache& cache) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &keys, t] {
        for (size_t round = 0; round < kRounds; ++round) {
          for (size_t i = t % 2; i < keys.size(); i += 2) {  // overlapping
            BinaryRelation relation;
            if (!cache.LookupNre(keys[i], &relation)) {
              cache.StoreNre(keys[i], BinaryRelation{});
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  };

  for (size_t shards : {size_t{1}, size_t{8}}) {
    EngineCache cache(ShardedOptions(shards));
    run(cache);
    CacheStats stats = cache.stats();
    // Threads t=0..3 stride by 2, so keys are covered twice per round.
    const uint64_t lookups = kThreads * kRounds * (kKeys / 2);
    EXPECT_EQ(stats.nre_hits + stats.nre_misses, lookups)
        << shards << " shard(s)";
    EXPECT_EQ(cache.sizes().nre_entries, kKeys) << shards << " shard(s)";
    EXPECT_EQ(stats.nre_evictions, 0u);
  }
}

/// Global caps bound the *sum* of shard sizes: quotas distribute
/// cap/S + remainder, so overfilling N >> cap distinct keys leaves at
/// most cap live entries and counts every other insert as an eviction.
TEST(CacheShardTest, GlobalCapBoundsSummedShardSizes) {
  for (size_t cap : {size_t{2}, size_t{7}, size_t{16}}) {
    EngineCacheOptions options = ShardedOptions(8);
    options.max_nre_entries = cap;
    EngineCache cache(options);
    const std::vector<std::string> keys = MakeKeys(64);
    for (const std::string& key : keys) {
      cache.StoreNre(key, BinaryRelation{});
    }
    CacheSizes sizes = cache.sizes();
    EXPECT_LE(sizes.nre_entries, cap) << "cap " << cap;
    EXPECT_EQ(cache.stats().nre_evictions, keys.size() - sizes.nre_entries)
        << "cap " << cap;
  }
}

/// GetOrCompile shares one immutable plan per key even when many threads
/// race the first compilation, at any shard count.
TEST(CacheShardTest, ConcurrentCompileSharesPlans) {
  for (size_t shards : {size_t{1}, size_t{8}}) {
    EngineCache cache(ShardedOptions(shards));
    Alphabet alphabet;
    std::vector<NrePtr> nres;
    for (int i = 0; i < 16; ++i) {
      nres.push_back(Nre::Star(
          Nre::Symbol(alphabet.Intern("s" + std::to_string(i)))));
    }
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
      threads.emplace_back([&cache, &nres] {
        for (int round = 0; round < 4; ++round) {
          for (const NrePtr& nre : nres) {
            EXPECT_NE(cache.GetOrCompile(nre), nullptr);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(cache.sizes().compiled_entries, nres.size());
    CacheStats stats = cache.stats();
    EXPECT_EQ(stats.compile_hits + stats.compile_misses,
              4u * 4u * nres.size());
    // Racing first compiles may each count a miss, but the plan count
    // stays one per key and hits dominate after warmup.
    EXPECT_GT(stats.compile_hits, stats.compile_misses);
  }
}

/// NreKey only reads the graph: threads keying one shared const Graph at
/// once must agree on the key without racing (the graph keeps no lazily
/// filled signature cache for them to write concurrently).
TEST(CacheShardTest, ConcurrentNreKeysOnOneSharedGraph) {
  constexpr size_t kThreads = 4;
  Universe universe;
  Alphabet alphabet;
  RandomGraphParams params;
  params.num_nodes = 48;
  params.num_edges = 160;
  params.num_labels = 3;
  params.seed = 5;
  const Graph g = MakeRandomGraph(params, universe, alphabet);
  Rng rng(9);
  const NrePtr nre = MakeRandomNre(3, params.num_labels, alphabet, rng);
  std::vector<std::vector<std::string>> keys(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &nre, &keys, t] {
      for (int round = 0; round < 8; ++round) {
        keys[t].push_back(EngineCache::NreKey(nre, g));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string expected = EngineCache::NreKey(nre, g);
  for (const std::vector<std::string>& per_thread : keys) {
    for (const std::string& key : per_thread) EXPECT_EQ(key, expected);
  }
}

/// Per-solve attribution is routed through thread-local sinks and must
/// sum exactly to the global counter deltas regardless of shard count —
/// the contract concurrent serve sessions rely on for their telemetry.
TEST(CacheShardTest, PerSolveAttributionSumsExactlyAcrossShards) {
  EngineCache cache(ShardedOptions(8));
  const std::vector<std::string> keys = MakeKeys(32);
  constexpr size_t kThreads = 4;
  std::vector<PerSolveCacheStats> sinks(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &keys, &sinks, t] {
      ScopedCacheAttribution scope(&sinks[t]);
      for (size_t round = 0; round < 4; ++round) {
        for (const std::string& key : keys) {
          BinaryRelation relation;
          if (!cache.LookupNre(key, &relation)) {
            cache.StoreNre(key, BinaryRelation{});
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  CacheStats total;
  for (const PerSolveCacheStats& sink : sinks) {
    total.Accumulate(sink.Snapshot());
  }
  CacheStats global = cache.stats();
  EXPECT_EQ(total.nre_hits, global.nre_hits);
  EXPECT_EQ(total.nre_misses, global.nre_misses);
  EXPECT_EQ(total.nre_hits + total.nre_misses,
            kThreads * 4u * keys.size());
}

/// The cache is invisible to results at any shard count: engine outputs
/// are byte-identical between 1-shard and 8-shard configurations.
TEST(CacheShardTest, SolveOutputsByteIdenticalAcrossShardCounts) {
  auto solve_all = [](size_t shards) {
    EngineOptions options;
    options.instantiation.max_witnesses_per_edge = 3;
    options.max_solutions = 12;
    options.cache.num_shards = shards;
    ExchangeEngine engine(options);
    std::vector<std::string> out;
    std::vector<Scenario> scenarios;
    scenarios.push_back(MakeExample22Scenario(FlightConstraintMode::kEgd));
    scenarios.push_back(
        MakeExample22Scenario(FlightConstraintMode::kSameAs));
    scenarios.push_back(MakeExample52Scenario());
    for (Scenario& s : scenarios) {
      Result<ExchangeOutcome> outcome = engine.Solve(s);
      out.push_back(outcome.ok()
                        ? outcome->ToString(*s.universe, *s.alphabet)
                        : outcome.status().ToString());
    }
    return out;
  };
  EXPECT_EQ(solve_all(1), solve_all(8));
}

}  // namespace
}  // namespace gdx
