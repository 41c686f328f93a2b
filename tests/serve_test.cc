// Tests for the serving layer (src/serve/): snapshot top-k cache
// correctness, publish/acquire semantics, refresh-driver coalescing and
// policy, a readers-vs-publisher stress test (readers must always observe
// a complete, internally consistent snapshot — no torn top-k lists), a
// ServeLoop golden transcript over every request type plus malformed
// input, and end-to-end serve-while-editing convergence against a full
// recompute.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/incremental.h"
#include "core/fsim_engine.h"
#include "core/scores_io.h"
#include "graph/graph_builder.h"
#include "serve/query.h"
#include "serve/refresh.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "test_graphs.h"

namespace fsim {
namespace {

/// The 5-node two-label graph of the CLI smoke transcripts: small enough
/// for exact expectations, cyclic so every node has in/out neighbors.
Graph MakeServeGraph() {
  GraphBuilder builder;
  builder.AddNode("A");  // 0
  builder.AddNode("A");  // 1
  builder.AddNode("B");  // 2
  builder.AddNode("B");  // 3
  builder.AddNode("A");  // 4
  builder.AddEdge(0, 2);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 0);
  builder.AddEdge(1, 3);
  return std::move(builder).BuildOrDie();
}

FSimConfig ServeConfig() {
  FSimConfig config;
  config.variant = SimVariant::kSimple;
  config.epsilon = 1e-6;
  return config;
}

/// Reference ranking: full row, sorted by (score desc, id asc).
std::vector<std::pair<NodeId, double>> ReferenceTopK(const FSimScores& scores,
                                                     NodeId u, size_t k) {
  auto row = scores.Row(u);
  std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (row.size() > k) row.resize(k);
  return row;
}

TEST(FSimScoresTopKTest, HeapSelectionMatchesFullSort) {
  const Graph g = testing::MakeRandomPair(0xA11CE, 40, 40).g1;
  FSimConfig config = ServeConfig();
  auto scores = ComputeFSimSelf(g, config);
  ASSERT_TRUE(scores.ok());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                     size_t{1000}}) {
      const auto got = scores->TopK(u, k);
      const auto want = ReferenceTopK(*scores, u, k);
      ASSERT_EQ(got.size(), want.size()) << "u=" << u << " k=" << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, want[i].first) << "u=" << u << " k=" << k;
        EXPECT_EQ(got[i].second, want[i].second) << "u=" << u << " k=" << k;
      }
    }
  }
}

TEST(SnapshotTest, CacheMatchesScoresAndServesQueries) {
  const Graph g = testing::MakeRandomPair(0xBEE, 32, 32).g1;
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const FSimScores reference = *scores;

  SnapshotMeta meta;
  meta.version = 7;
  const FSimSnapshot snapshot(FreezeScores(std::move(*scores)),
                              /*cache_k=*/4, meta);
  EXPECT_EQ(snapshot.meta().version, 7u);
  EXPECT_GT(snapshot.CacheBytes(), 0u);

  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    // The cache holds exactly the first min(4, |row|) ranked entries.
    const auto want4 = ReferenceTopK(reference, u, 4);
    const auto cached = snapshot.CachedTopK(u);
    ASSERT_EQ(cached.size(), want4.size()) << "u=" << u;
    for (size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i], want4[i]) << "u=" << u;
    }
    // k <= cache_k serves from the cache; k > cache_k falls back to
    // selection — both must match the reference ranking.
    for (size_t k : {size_t{2}, size_t{4}, size_t{9}}) {
      const auto got = snapshot.TopK(u, k);
      const auto want = ReferenceTopK(reference, u, k);
      ASSERT_EQ(got.size(), want.size()) << "u=" << u << " k=" << k;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "u=" << u << " k=" << k;
      }
    }
    // ThresholdNeighbors == the >= tau prefix of the full ranking.
    for (double tau : {0.0, 0.3, 0.7, 1.1}) {
      const auto got = snapshot.ThresholdNeighbors(u, tau);
      auto want = ReferenceTopK(reference, u, g.NumNodes());
      want.erase(std::remove_if(
                     want.begin(), want.end(),
                     [tau](const auto& e) { return e.second < tau; }),
                 want.end());
      ASSERT_EQ(got.size(), want.size()) << "u=" << u << " tau=" << tau;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "u=" << u << " tau=" << tau;
      }
    }
    // Pair queries delegate to the frozen scores.
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(snapshot.PairScore(u, v), reference.Score(u, v));
    }
  }
}

/// One snapshot's cache, row by row, as plain vectors.
std::vector<std::vector<std::pair<NodeId, double>>> CacheRows(
    const FSimSnapshot& snapshot) {
  std::vector<std::vector<std::pair<NodeId, double>>> rows;
  for (size_t u = 0; u < snapshot.scores().key_set()->NumRows(); ++u) {
    const auto cached = snapshot.CachedTopK(static_cast<NodeId>(u));
    rows.emplace_back(cached.begin(), cached.end());
  }
  return rows;
}

// Publishing carries the previous snapshot's top-k cache forward: after
// every edit of random insert/remove streams, the carried cache must equal
// a cold build of the same scores for every variant, θ and cache depth (64
// is longer than every row here, so whole-row caches are covered). A
// snapshot retained from an early version must stay exactly as built, and
// Snapshot() must keep handing out the engine's full key set and values.
TEST(SnapshotCarryTest, CarriedCacheEqualsColdBuildAcrossEditStreams) {
  constexpr size_t kDepths[] = {1, 4, 16, 64};
  CacheBuildStats totals;
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    for (double theta : {0.4, 1.0}) {
      const std::string where = std::string(SimVariantName(variant)) +
                                " theta=" + std::to_string(theta);
      const auto pair = testing::MakeRandomPair(0xCA77 + (theta < 1.0), 24,
                                                24, 3);
      FSimConfig config;
      config.variant = variant;
      config.theta = theta;
      auto inc = IncrementalFSim::Create(pair.g1, pair.g2, config);
      ASSERT_TRUE(inc.ok()) << inc.status().ToString();

      std::vector<SnapshotPtr> carried(std::size(kDepths));
      SnapshotPtr retained;
      std::vector<uint64_t> retained_keys;
      std::vector<double> retained_values;
      std::vector<std::vector<std::pair<NodeId, double>>> retained_cache;
      Rng rng(0x5EED + static_cast<uint64_t>(variant));
      const NodeId n = static_cast<NodeId>(inc->g1().NumNodes());
      for (int e = 0; e < 14; ++e) {
        if (e > 0) {
          // Alternate inserts of absent edges with removals of present
          // ones, so every edit takes effect.
          const DynamicGraph& g = inc->g1();
          const bool insert = e % 2 == 1;
          NodeId from = 0, to = 0;
          do {
            from = static_cast<NodeId>(rng.NextBounded(n));
            to = static_cast<NodeId>(rng.NextBounded(n));
          } while (from == to || g.HasEdge(from, to) == insert);
          const Status status = insert ? inc->InsertEdge(1, from, to)
                                       : inc->RemoveEdge(1, from, to);
          ASSERT_TRUE(status.ok()) << status.ToString();
        }
        const SharedFSimScores scores = FreezeScores(inc->Snapshot());
        ASSERT_EQ(scores->key_set(), inc->Snapshot().key_set()) << where;
        ASSERT_EQ(scores->NumPairs(), inc->NumPairs()) << where;
        for (size_t i = 0; i < scores->NumPairs(); ++i) {
          const uint64_t key = scores->keys()[i];
          ASSERT_EQ(scores->values()[i],
                    inc->Score(PairFirst(key), PairSecond(key)))
              << where << " edit " << e;
        }
        for (size_t d = 0; d < std::size(kDepths); ++d) {
          SnapshotMeta meta;
          meta.version = static_cast<uint64_t>(e) + 1;
          auto next = std::make_shared<const FSimSnapshot>(
              scores, kDepths[d], meta, carried[d].get());
          const FSimSnapshot cold(scores, kDepths[d], meta);
          ASSERT_EQ(CacheRows(*next), CacheRows(cold))
              << where << " cache_k=" << kDepths[d] << " edit " << e;
          const Status valid = next->ValidateCache();
          ASSERT_TRUE(valid.ok()) << valid.ToString();
          const CacheBuildStats& stats = next->cache_build_stats();
          if (e > 0) {
            totals.carried += stats.carried;
            totals.repaired += stats.repaired;
            totals.reselected += stats.reselected;
          }
          carried[d] = std::move(next);
        }
        if (e == 0) {
          retained = carried[2];
          retained_keys = retained->scores().keys();
          retained_values = retained->scores().values();
          retained_cache = CacheRows(*retained);
        }
      }
      // The retained version shares the key set but none of the later
      // values or cache rows.
      EXPECT_EQ(retained->scores().keys(), retained_keys) << where;
      EXPECT_EQ(retained->scores().values(), retained_values) << where;
      EXPECT_EQ(CacheRows(*retained), retained_cache) << where;
      EXPECT_NE(retained->scores().values(), carried[2]->scores().values())
          << where;

      // The shared key set is the candidate set a batch solve enumerates.
      auto full = ComputeFSim(inc->MaterializeG1(), inc->MaterializeG2(),
                              config);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_EQ(inc->Snapshot().keys(), full->keys()) << where;
    }
  }
  // Each path of the carried build ran somewhere in the sweep.
  EXPECT_GT(totals.carried, 0u);
  EXPECT_GT(totals.repaired, 0u);
  EXPECT_GT(totals.reselected, 0u);
}

TEST(SnapshotStoreTest, PublishAcquireVersions) {
  SnapshotStore store;
  EXPECT_EQ(store.Acquire(), nullptr);
  EXPECT_EQ(store.version(), 0u);

  auto make = [](uint64_t version) {
    SnapshotMeta meta;
    meta.version = version;
    return std::make_shared<const FSimSnapshot>(
        FreezeScores(FSimScores()), /*cache_k=*/2, meta);
  };
  const uint64_t v1 = store.NextVersion();
  const uint64_t v2 = store.NextVersion();
  EXPECT_LT(v1, v2);
  EXPECT_TRUE(store.Publish(make(v2)));
  EXPECT_EQ(store.version(), v2);
  // A stale publish (older version) is dropped, not swapped in.
  EXPECT_FALSE(store.Publish(make(v1)));
  EXPECT_EQ(store.version(), v2);
  EXPECT_EQ(store.Acquire()->meta().version, v2);
  EXPECT_EQ(store.publish_count(), 1u);
}

// Side of the all-pairs score tables ConstantSnapshot builds.
constexpr uint32_t kSide = 12;
// Top-k cache depth of those snapshots.
constexpr size_t kConstantCacheK = 4;

/// A kSide x kSide all-pairs snapshot whose every score is `value`: any
/// mix of values, or a cache disagreeing with the table, exposes a torn or
/// mismatched read.
SnapshotPtr ConstantSnapshot(uint64_t version, double value) {
  std::vector<uint64_t> keys;
  std::vector<double> values;
  FlatPairMap index(kSide * kSide);
  for (uint32_t u = 0; u < kSide; ++u) {
    for (uint32_t v = 0; v < kSide; ++v) {
      index.Insert(PairKey(u, v), static_cast<uint32_t>(keys.size()));
      keys.push_back(PairKey(u, v));
      values.push_back(value);
    }
  }
  SnapshotMeta meta;
  meta.version = version;
  return std::make_shared<const FSimSnapshot>(
      FreezeScores(FSimScores(std::move(keys), std::move(values),
                              std::move(index), FSimStats{})),
      kConstantCacheK, meta);
}

/// The constant every score of version `version` carries in the
/// publisher-stress tests.
double VersionValue(uint64_t version) {
  return static_cast<double>(version % 97) / 96.0;
}

// Readers must never observe a torn snapshot. Every published snapshot is
// internally consistent by construction (all scores equal one
// version-derived constant); a reader seeing mixed values, or a top-k
// cache disagreeing with the score table, caught a torn publish.
TEST(SnapshotStoreTest, ReadersNeverObserveTornSnapshots) {
  constexpr uint64_t kMinReads = 2000;    // validated reader passes required
  constexpr uint64_t kMaxPublishes = 5'000'000;  // anti-hang safety valve
  SnapshotStore store;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const SnapshotPtr snap = store.Acquire();
        if (snap == nullptr) continue;
        const double want = VersionValue(snap->meta().version);
        bool ok = true;
        for (double value : snap->scores().values()) {
          ok = ok && value == want;
        }
        for (uint32_t u = 0; u < kSide; ++u) {
          const auto cached = snap->CachedTopK(u);
          ok = ok && cached.size() == kConstantCacheK;
          for (const auto& [v, score] : cached) {
            ok = ok && score == want && score == snap->PairScore(u, v);
          }
        }
        if (!ok) torn.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }

  // Publish continuously until the readers have validated enough acquired
  // snapshots concurrently with the swaps (the interesting interleaving).
  uint64_t publishes = 0;
  while (reads.load() < kMinReads && publishes < kMaxPublishes) {
    const uint64_t version = store.NextVersion();
    ASSERT_TRUE(store.Publish(ConstantSnapshot(version, VersionValue(version))));
    ++publishes;
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), kMinReads);
  EXPECT_EQ(store.version(), publishes);
}

// Single queries read through the thread's pin. Four threads call Run
// against a publisher swapping versions: every answer must carry its own
// version's constant (a pin never pairs one version's number with another
// version's scores), and each thread's versions must never decrease.
TEST(SnapshotStoreTest, PinnedRunsMatchTheirVersionUnderPublish) {
  constexpr uint64_t kMinRuns = 20'000;          // answered Runs required
  constexpr uint64_t kMinVersionChanges = 200;   // re-pins seen by readers
  constexpr uint64_t kMaxPublishes = 5'000'000;  // anti-hang safety valve
  SnapshotStore store;
  const QueryEngine engine(&store);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> runs{0};
  std::atomic<uint64_t> version_changes{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> regressions{0};

  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      for (uint32_t i = 0; !done.load(); ++i) {
        Query query;
        query.u = (r + i) % kSide;
        if (i % 8 == 0) {
          query.kind = Query::Kind::kTopK;
          query.k = kConstantCacheK;
        } else {
          query.v = i % kSide;
        }
        const Result<QueryResult> result = engine.Run(query);
        if (!result.ok()) continue;  // nothing published yet
        const double want = VersionValue(result->version);
        bool ok = query.kind == Query::Kind::kPair
                      ? result->score == want
                      : result->entries.size() == kConstantCacheK;
        for (const auto& entry : result->entries) {
          ok = ok && entry.second == want;
        }
        if (!ok) mismatches.fetch_add(1);
        if (result->version < last_version) regressions.fetch_add(1);
        if (result->version != last_version) version_changes.fetch_add(1);
        last_version = result->version;
        runs.fetch_add(1);
      }
    });
  }

  uint64_t publishes = 0;
  while ((runs.load() < kMinRuns ||
          version_changes.load() < kMinVersionChanges) &&
         publishes < kMaxPublishes) {
    const uint64_t version = store.NextVersion();
    ASSERT_TRUE(store.Publish(ConstantSnapshot(version, VersionValue(version))));
    ++publishes;
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_GE(runs.load(), kMinRuns);
  EXPECT_GE(version_changes.load(), kMinVersionChanges);
}

// Pins are keyed by a process-unique store id, not by the store's address:
// a store built where a destroyed one lived restarts its versions at the
// same numbers, and must still never serve the old store's pinned snapshot.
TEST(SnapshotStoreTest, PinIsKeyedByStoreNotAddress) {
  std::optional<SnapshotStore> store;
  store.emplace();
  const SnapshotStore* const address = &*store;
  const QueryEngine engine(address);
  Query query;  // PAIR (0, 0)

  ASSERT_TRUE(store->Publish(ConstantSnapshot(store->NextVersion(), 0.25)));
  const Result<QueryResult> first = engine.Run(query);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->score, 0.25);

  // A second store at the same address: nothing to serve before its first
  // publish, then its own score.
  store.emplace();
  ASSERT_EQ(&*store, address);
  EXPECT_TRUE(engine.Run(query).status().IsNotFound());
  ASSERT_TRUE(store->Publish(ConstantSnapshot(store->NextVersion(), 0.75)));
  const Result<QueryResult> second = engine.Run(query);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->version, 1u);
  EXPECT_EQ(second->score, 0.75);

  // A third store at the same address, first queried after its first
  // publish: address and version both equal the pin's, only the id
  // differs.
  store.emplace();
  ASSERT_EQ(&*store, address);
  ASSERT_TRUE(store->Publish(ConstantSnapshot(store->NextVersion(), 0.5)));
  const Result<QueryResult> third = engine.Run(query);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->version, 1u);
  EXPECT_EQ(third->score, 0.5);
}

// A pin owns its snapshot, so it outlives the store it was taken on; the
// thread's next query on another store releases it without touching the
// destroyed store (the ASan leg checks the release).
TEST(SnapshotStoreTest, PinOutlivesItsStore) {
  Query query;  // PAIR (0, 0)
  std::weak_ptr<const FSimSnapshot> pinned;
  {
    SnapshotStore old_store;
    SnapshotPtr snapshot = ConstantSnapshot(old_store.NextVersion(), 0.25);
    pinned = snapshot;
    ASSERT_TRUE(old_store.Publish(std::move(snapshot)));
    const QueryEngine engine(&old_store);
    const Result<QueryResult> result = engine.Run(query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->score, 0.25);
  }
  // The store is gone; this thread's pin holds the only reference.
  EXPECT_EQ(pinned.use_count(), 1);

  SnapshotStore store;
  ASSERT_TRUE(store.Publish(ConstantSnapshot(store.NextVersion(), 0.75)));
  const QueryEngine engine(&store);
  const Result<QueryResult> result = engine.Run(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->score, 0.75);
  EXPECT_TRUE(pinned.expired());
}

TEST(RefreshDriverTest, CoalescesBurstsAndHonorsPublishPolicy) {
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.max_edits_behind = 3;
  policy.topk_cache_k = 4;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);
  EXPECT_FALSE(driver.ready());
  ASSERT_TRUE(driver.Init().ok());
  ASSERT_TRUE(driver.ready());
  const uint64_t solve_version = store.version();
  EXPECT_GT(solve_version, 0u);

  // An insert/remove burst on one edge coalesces to a net no-op: nothing
  // applied, nothing published.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/false}).ok());
  auto applied = driver.DrainApply(/*force_publish=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
  EXPECT_EQ(driver.stats().edits_coalesced, 2u);
  EXPECT_EQ(store.version(), solve_version);

  // Below the drift bound: applied but not yet published.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  applied = driver.DrainApply(/*force_publish=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(store.version(), solve_version);

  // Force-publish flushes the pending drift.
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_GT(store.version(), solve_version);
  const uint64_t flushed_version = store.version();

  // Reaching max_edits_behind publishes without force.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/false}).ok());
  ASSERT_TRUE(driver.Submit({2, 1, 0, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Submit({2, 3, 0, /*insert=*/true}).ok());
  applied = driver.DrainApply(/*force_publish=*/false);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 3u);
  EXPECT_GT(store.version(), flushed_version);

  // Rejected edits (endpoint out of range) are counted, not applied; an
  // invalid graph index is rejected up front at Submit.
  ASSERT_TRUE(driver.Submit({1, 99, 0, /*insert=*/true}).ok());
  EXPECT_TRUE(driver.Submit({3, 0, 1, /*insert=*/true}).IsInvalidArgument());
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_EQ(driver.stats().edits_failed, 1u);

  // The published snapshot matches a from-scratch solve of the current
  // graphs.
  auto full = ComputeFSim(driver.MaterializeG1(), driver.MaterializeG2(),
                          ServeConfig());
  ASSERT_TRUE(full.ok());
  const SnapshotPtr snap = store.Acquire();
  ASSERT_NE(snap, nullptr);
  for (size_t i = 0; i < full->keys().size(); ++i) {
    const NodeId u = PairFirst(full->keys()[i]);
    const NodeId v = PairSecond(full->keys()[i]);
    EXPECT_NEAR(snap->PairScore(u, v), full->values()[i], 1e-4)
        << "(" << u << "," << v << ")";
  }
}

TEST(QueryEngineTest, BatchAnswersFromOneSnapshot) {
  SnapshotStore store;
  QueryEngine engine(&store);
  Query pair_query;
  pair_query.kind = Query::Kind::kPair;
  EXPECT_TRUE(engine.Run(pair_query).status().IsNotFound());

  SnapshotMeta meta;
  meta.version = store.NextVersion();
  ASSERT_TRUE(store.Publish(std::make_shared<const FSimSnapshot>(
      FreezeScores(FSimScores()), 2, meta)));
  std::vector<Query> queries(3);
  queries[1].kind = Query::Kind::kTopK;
  queries[1].k = 2;
  queries[2].kind = Query::Kind::kThreshold;
  auto results = engine.RunBatch(queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  for (const QueryResult& result : *results) {
    EXPECT_EQ(result.version, meta.version);
  }
}

// The full protocol surface against a deterministic synchronous service:
// pair/top-k/threshold/batch queries, edits + flush, stats, malformed
// requests, comments, and QUIT. The transcript pins the exact wire format.
TEST(ServeLoopTest, GoldenTranscript) {
  const Graph g = MakeServeGraph();
  ServeOptions options;
  options.background_refresh = false;
  options.policy.topk_cache_k = 4;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // The degraded TOPK/THRESH variants pass a budget that truncates to a
  // zero-length deadline (steady_clock::now() >= deadline holds on entry),
  // so the degradation path is hit deterministically.
  std::string requests =
      "# comment lines and blank lines are ignored\n"
      "\n"
      "PAIR 0 1\n"
      "PAIR 0 99\n"
      "TOPK 0 3\n"
      "THRESH 0 0.45\n"
      "TOPK 0 5 0.0000001\n"
      "THRESH 0 0.45 0.0000001\n"
      "BATCH 3\n"
      "PAIR 1 1\n"
      "TOPK 4 2\n"
      "NOPE 1 2\n"
      "EDIT INSERT 1 0 3\n"
      "FLUSH\n"
      "PAIR 0 1\n"
      "EDIT REMOVE 3 0 1\n"
      "EDIT INSERT 1\n"
      "PAIR x 1\n"
      "TOPK 0\n"
      "THRESH 0 abc\n"
      "TOPK 0 3 -1\n"
      "BATCH 999999\n"
      "BOGUS\n";
  // Hostile input: an over-length line (rejected without buffering it) and
  // an embedded NUL byte — both answered in-band, the loop keeps serving.
  requests += std::string(FSimService::kMaxLineBytes + 1000, 'A') + "\n";
  requests += std::string("PAIR ") + '\0' + "0 1\n";
  requests +=
      "STATS\n"
      "QUIT\n"
      "PAIR 0 1\n";  // after QUIT: never answered
  std::istringstream in(requests);
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());

  // Spot-checked against Eq. 3 by hand: FSim_s(0, 1) = w+ * 1 (node 2 maps
  // to itself) + w- * 0 (node 1 has no in-neighbors) + 0.2 * L = 0.6.
  const std::string kExpected =
      "SCORE 0.600000 v1\n"
      "SCORE 0.000000 v1\n"
      "TOPK 3 v1\n"
      "0 1.000000\n"
      "4 0.656703\n"
      "1 0.600000\n"
      "THRESH 4 v1\n"
      "0 1.000000\n"
      "4 0.656703\n"
      "1 0.600000\n"
      "2 0.533907\n"
      "TOPK 4 v1 degraded\n"
      "0 1.000000\n"
      "4 0.656703\n"
      "1 0.600000\n"
      "2 0.533907\n"
      "THRESH 4 v1 degraded\n"
      "0 1.000000\n"
      "4 0.656703\n"
      "1 0.600000\n"
      "2 0.533907\n"
      "BATCH 3 v1\n"
      "SCORE 1.000000 v1\n"
      "TOPK 2 v1\n"
      "4 1.000000\n"
      "0 0.614166\n"
      "ERR unknown request 'NOPE'\n"
      "OK queued\n"
      "OK version 2\n"
      "SCORE 0.565554 v2\n"
      "ERR usage: EDIT INSERT|REMOVE <graph 1|2> <from> <to>\n"
      "ERR usage: EDIT INSERT|REMOVE <graph 1|2> <from> <to>\n"
      "ERR usage: PAIR <u> <v>\n"
      "ERR usage: TOPK <u> <k> [budget_ms]\n"
      "ERR usage: THRESH <u> <tau> [budget_ms]\n"
      "ERR usage: TOPK <u> <k> [budget_ms]\n"
      "ERR usage: BATCH <n> [budget_ms] (n <= 100000)\n"
      "ERR unknown request 'BOGUS'\n"
      "ERR line exceeds 4096 bytes\n"
      "ERR embedded NUL byte in request\n"
      "STATS version=2 pairs=25 pending=0 capacity=0 applied=1 coalesced=0 "
      "failed=0 shed=0 replayed=0 publishes=2 persists=0 wal_durable=0 "
      "wal_applied=0 wal_pending=0 stale_edits=0 stale_s=0 publish_age_s=0 "
      "ready=yes converged=yes bound=4.4e-06 warm=no\n"
      "BYE\n";
  EXPECT_EQ(out.str(), kExpected);
}

// METRICS and STATS FULL carry timing-dependent histogram values, so this
// validates structure instead of pinning a transcript: the count-prefixed
// METRICS framing, required Prometheus families, and the HIST...END block.
TEST(ServeLoopTest, MetricsAndStatsFull) {
  const Graph g = MakeServeGraph();
  ServeOptions options;
  options.background_refresh = false;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::istringstream in(
      "PAIR 0 1\n"
      "TOPK 0 3\n"
      "THRESH 0 0.45\n"
      "STATS FULL\n"
      "METRICS\n"
      "STATS EXTRA\n"
      "QUIT\n");
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());
  const std::string reply = out.str();

  // STATS FULL: the deterministic STATS line (with the new wal_pending and
  // publish_age_s keys), HIST quantile lines — the three queries above
  // guarantee non-empty per-verb histograms — then END. Counts are not
  // pinned: the registry is process-wide across tests in this binary.
  EXPECT_NE(reply.find("STATS version="), std::string::npos);
  EXPECT_NE(reply.find(" wal_pending=0 "), std::string::npos);
  EXPECT_NE(reply.find(" publish_age_s="), std::string::npos);
  EXPECT_NE(
      reply.find("HIST fsim_serve_query_seconds{verb=\"PAIR\"} count="),
      std::string::npos);
  EXPECT_NE(reply.find("p99_us="), std::string::npos);
  EXPECT_NE(reply.find("\nEND\n"), std::string::npos);
  // STATS reports only what the serving process uses: no kernel level.
  EXPECT_EQ(reply.find(" simd="), std::string::npos);
  // Malformed STATS argument is rejected in-band.
  EXPECT_NE(reply.find("ERR usage: STATS [FULL]\n"), std::string::npos);

  // METRICS framing: the advertised line count delimits the payload
  // exactly — the line after it is the STATS EXTRA error.
  const size_t header = reply.find("\nMETRICS ");
  ASSERT_NE(header, std::string::npos);
  std::istringstream lines(reply.substr(header + 1));
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const size_t advertised = std::stoul(line.substr(sizeof("METRICS ") - 1));
  ASSERT_GT(advertised, 0u);
  std::vector<std::string> payload;
  for (size_t i = 0; i < advertised; ++i) {
    ASSERT_TRUE(std::getline(lines, line)) << "payload shorter than header";
    payload.push_back(line);
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "ERR usage: STATS [FULL]");

  const auto contains = [&payload](std::string_view needle) {
    for (const std::string& l : payload) {
      if (l.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("# TYPE fsim_serve_query_seconds histogram"));
  EXPECT_TRUE(
      contains("fsim_serve_query_seconds_bucket{verb=\"PAIR\",le=\"+Inf\"}"));
  EXPECT_TRUE(contains("fsim_serve_query_seconds_count{verb=\"TOPK\"}"));
  EXPECT_TRUE(contains("# TYPE fsim_refresh_queue_depth gauge"));
  EXPECT_TRUE(contains("# TYPE fsim_publish_age_seconds gauge"));
  EXPECT_TRUE(contains("fsim_served_error_bound 4.4e-06"));
}

TEST(ServeLoopTest, WarmStartServesBeforeRefreshReady) {
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const std::string path = ::testing::TempDir() + "/warm.scores";
  ASSERT_TRUE(SaveScoresToFile(*scores, path).ok());

  ServeOptions options;
  options.background_refresh = true;
  options.warm_scores_path = path;
  auto service = FSimService::Create(g, g, ServeConfig(), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // The warm snapshot is published synchronously by Create, so queries
  // answer immediately — whether or not the background solve has finished.
  std::istringstream in("PAIR 0 0\nQUIT\n");
  std::ostringstream out;
  ASSERT_TRUE((*service)->ServeLoop(in, out).ok());
  EXPECT_EQ(out.str().substr(0, 15), "SCORE 1.000000 ");

  // Flush waits for the background engine, then publishes its (computed)
  // state; the answers keep matching the converged scores.
  ASSERT_TRUE((*service)->driver().Flush().ok());
  std::istringstream in2("PAIR 0 1\nQUIT\n");
  std::ostringstream out2;
  ASSERT_TRUE((*service)->ServeLoop(in2, out2).ok());
  EXPECT_EQ(out2.str().substr(0, 15), "SCORE 0.600000 ");
}

// End to end: a background edit stream is applied while reader threads
// hammer the service; every answer must be internally consistent, and the
// final flushed state must match a from-scratch recompute.
TEST(ServeLoopTest, ServesConsistentlyUnderBackgroundEdits) {
  const Graph g = testing::MakeRandomPair(0xD0C, 24, 24).g1;
  ServeOptions options;
  options.background_refresh = true;
  options.policy.max_edits_behind = 4;
  options.policy.poll_seconds = 0.001;
  FSimConfig config = ServeConfig();
  auto service = FSimService::Create(g, g, config, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->driver().Flush().ok());  // wait for the solve

  std::atomic<bool> done{false};
  std::atomic<uint64_t> inconsistent{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&service, &done, &inconsistent, &g] {
      const QueryEngine& engine = (*service)->query_engine();
      Rng rng(0xF00 + reinterpret_cast<uintptr_t>(&engine));
      while (!done.load()) {
        Query query;
        query.kind = Query::Kind::kTopK;
        query.u = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
        query.k = 5;
        auto result = engine.Run(query);
        if (!result.ok()) continue;
        // Ranking must be sorted and scores in [0, 1] — a torn snapshot
        // would violate one of the two.
        for (size_t i = 0; i < result->entries.size(); ++i) {
          const double score = result->entries[i].second;
          if (score < 0.0 || score > 1.0) inconsistent.fetch_add(1);
          if (i > 0 && result->entries[i - 1].second < score) {
            inconsistent.fetch_add(1);
          }
        }
      }
    });
  }

  Rng rng(0xED17);
  for (int e = 0; e < 40; ++e) {
    EditOp op;
    op.graph_index = (e % 2) + 1;
    op.from = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    op.to = static_cast<NodeId>(rng.NextBounded(g.NumNodes()));
    if (op.from == op.to) continue;
    op.insert = (rng.Next() & 1) != 0;
    ASSERT_TRUE((*service)->driver().Submit(op).ok());
    if (e % 10 == 9) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE((*service)->driver().Flush().ok());
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(inconsistent.load(), 0u);

  auto full = ComputeFSim((*service)->driver().MaterializeG1(),
                          (*service)->driver().MaterializeG2(), config);
  ASSERT_TRUE(full.ok());
  const SnapshotPtr snap = (*service)->store().Acquire();
  ASSERT_NE(snap, nullptr);
  double max_diff = 0.0;
  for (size_t i = 0; i < full->keys().size(); ++i) {
    const NodeId u = PairFirst(full->keys()[i]);
    const NodeId v = PairSecond(full->keys()[i]);
    max_diff = std::max(max_diff,
                        std::abs(snap->PairScore(u, v) - full->values()[i]));
  }
  EXPECT_LT(max_diff, 1e-4);
}

// Overload shedding: a bounded queue accepts up to capacity distinct
// edges, coalesces same-edge bursts even when full, and sheds the rest
// with ResourceExhausted (counted, never silently dropped).
TEST(RefreshDriverTest, BoundedQueueShedsAndCoalesces) {
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.queue_capacity = 2;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);

  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  ASSERT_TRUE(driver.Submit({2, 1, 0, /*insert=*/true}).ok());
  EXPECT_EQ(driver.pending_edits(), 2u);
  // Full: a distinct edge is shed...
  EXPECT_TRUE(driver.Submit({1, 2, 4, /*insert=*/true}).IsResourceExhausted());
  // ...but a same-edge submission still coalesces last-op-wins.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/false}).ok());
  EXPECT_EQ(driver.pending_edits(), 2u);
  EXPECT_EQ(driver.stats().edits_shed, 1u);

  // The queued (coalesced) edits drain normally once the engine is up.
  ASSERT_TRUE(driver.Init().ok());
  ASSERT_TRUE(driver.Flush().ok());
  EXPECT_EQ(driver.pending_edits(), 0u);
  // After the drain, capacity is free again.
  ASSERT_TRUE(driver.Submit({1, 2, 4, /*insert=*/true}).ok());
}

// Deadline budgets answer from the cache instead of blowing the deadline:
// an already-expired deadline degrades TOPK to the cache prefix and leaves
// PAIR (O(1)) exact.
TEST(QueryEngineTest, ExpiredDeadlineDegradesToCachePrefix) {
  const Graph g = MakeServeGraph();
  auto scores = ComputeFSimSelf(g, ServeConfig());
  ASSERT_TRUE(scores.ok());
  const FSimScores reference = *scores;
  SnapshotMeta meta;
  meta.version = 1;
  const FSimSnapshot snapshot(FreezeScores(std::move(*scores)),
                              /*cache_k=*/2, meta);

  const auto expired = QueryEngine::Clock::now();
  Query topk;
  topk.kind = Query::Kind::kTopK;
  topk.u = 0;
  topk.k = 4;
  const QueryResult degraded = QueryEngine::Answer(snapshot, topk, expired);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.entries.size(), 2u);  // the cache prefix, not k
  const auto want = ReferenceTopK(reference, 0, 2);
  for (size_t i = 0; i < degraded.entries.size(); ++i) {
    EXPECT_EQ(degraded.entries[i], want[i]);
  }
  // Within cache depth the prefix IS the exact answer: not degraded.
  topk.k = 2;
  EXPECT_FALSE(QueryEngine::Answer(snapshot, topk, expired).degraded);
  // PAIR never degrades.
  Query pair;
  pair.kind = Query::Kind::kPair;
  pair.u = 0;
  pair.v = 1;
  const QueryResult exact = QueryEngine::Answer(snapshot, pair, expired);
  EXPECT_FALSE(exact.degraded);
  EXPECT_EQ(exact.score, reference.Score(0, 1));
}

// Flush must return DeadlineExceeded instead of blocking forever behind a
// stalled solve. A delay failpoint in the init path stands in for the
// stall; needs an FSIM_FAILPOINTS build.
TEST(RefreshDriverTest, FlushDeadlineExceededWhileInitStalled) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (build with FSIM_FAILPOINTS=ON)";
  }
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.poll_seconds = 0.001;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);
  ASSERT_TRUE(failpoint::Arm("serve.refresh.init_solve", "1*delay(300)").ok());
  driver.Start();
  // The solve is sleeping inside the failpoint: a bounded flush gives up...
  EXPECT_TRUE(driver
                  .FlushWithin(std::chrono::milliseconds(20))
                  .IsDeadlineExceeded());
  // ...and an unbounded one waits it out.
  ASSERT_TRUE(driver.Submit({1, 0, 3, /*insert=*/true}).ok());
  EXPECT_TRUE(driver.FlushWithin(std::chrono::milliseconds(0)).ok());
  EXPECT_TRUE(driver.ready());
  failpoint::Disarm("serve.refresh.init_solve");
  EXPECT_GE(failpoint::HitCount("serve.refresh.init_solve"), 1u);
  ASSERT_TRUE(driver.Stop(std::chrono::milliseconds(0)).ok());
}

// The background watchdog retries a failing Init with backoff instead of
// giving up: arm an error for the first two solve attempts, then watch the
// third succeed while queries were never blocked.
TEST(RefreshDriverTest, WatchdogRetriesFailedInit) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (build with FSIM_FAILPOINTS=ON)";
  }
  const Graph g = MakeServeGraph();
  SnapshotStore store;
  RefreshPolicy policy;
  policy.retry_backoff_seconds = 0.005;
  policy.retry_backoff_max_seconds = 0.01;
  RefreshDriver driver(g, g, ServeConfig(), IncrementalOptions{}, policy,
                       &store);
  ASSERT_TRUE(failpoint::Arm("serve.refresh.init_solve", "2*error").ok());
  driver.Start();
  ASSERT_TRUE(driver.Flush().ok());  // waits through the failing attempts
  EXPECT_TRUE(driver.ready());
  EXPECT_GE(driver.stats().init_retries, 2u);
  failpoint::Disarm("serve.refresh.init_solve");
}

}  // namespace
}  // namespace fsim
