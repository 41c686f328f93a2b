// Shared test environment that runs every structural validator after the
// suite finishes (so each tier-1 test run ends with a full invariant audit)
// and asserts, via ValidatorCounters, that each validator executed at least
// once during the run — a validator that silently stops being wired in
// fails the suite instead of rotting.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/flat_pair_map.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/incremental_index.h"
#include "core/pair_store.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "serve/snapshot.h"

namespace fsim {
namespace {

/// Canonical instances of every validated structure, built fresh so the
/// audit is independent of which tests ran.
void RunAllValidators() {
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddNode(i % 2 ? "a" : "b");
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(4, 0);
  b.AddEdge(0, 2);
  const Graph g = std::move(b).BuildOrDie();
  FSimConfig config;
  LabelSimilarityCache lsim(*g.dict(), config.label_sim);

  DynamicGraph dg(g);
  ASSERT_TRUE(dg.InsertEdge(1, 3).ok());
  ASSERT_TRUE(dg.RemoveEdge(0, 2).ok());
  const Status adjacency = dg.ValidateAdjacency();
  EXPECT_TRUE(adjacency.ok()) << adjacency.ToString();

  auto store = PairStore::Build(g, g, config, lsim);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const Status neighbor_index = store->ValidateNeighborIndex();
  EXPECT_TRUE(neighbor_index.ok()) << neighbor_index.ToString();

  std::vector<uint64_t> keys;
  FlatPairMap pair_index(store->size());
  for (size_t i = 0; i < store->size(); ++i) {
    const uint64_t key = PairKey(store->U(i), store->V(i));
    pair_index.Insert(key, static_cast<uint32_t>(i));
    keys.push_back(key);
  }
  IncrementalNeighborIndex incremental;
  const NeighborIndexEnv env{dg, dg, pair_index, lsim};
  ASSERT_TRUE(incremental.Build(env, keys, config));
  // Exercise the in-place and relocation Restage paths before auditing.
  ASSERT_TRUE(dg.InsertEdge(0, 3).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    incremental.Restage(i, IncrementalNeighborIndex::kOut, store->U(i),
                        store->V(i), env);
  }
  const Status arena = incremental.Validate(keys.size());
  EXPECT_TRUE(arena.ok()) << arena.ToString();

  ThreadPool pool(3);
  std::vector<uint64_t> sums(512, 0);
  pool.ParallelForChunked(sums.size(), 8, [&sums](int, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) sums[i] = i * i;
  });
  const Status scheduler = pool.ValidateScheduler();
  EXPECT_TRUE(scheduler.ok()) << scheduler.ToString();

  SnapshotStore snapshots;
  FlatPairMap score_index(1);
  score_index.Insert(PairKey(0, 0), 0);
  SharedFSimScores scores = FreezeScores(
      FSimScores({PairKey(0, 0)}, {1.0}, std::move(score_index), FSimStats{}));
  for (double value : {1.0, 0.5}) {
    // The second round carries the first one's rank order forward over the
    // same key set with a changed value.
    SnapshotMeta meta;
    meta.version = snapshots.NextVersion();
    const SnapshotPtr previous = snapshots.Acquire();
    ASSERT_TRUE(snapshots.Publish(std::make_shared<const FSimSnapshot>(
        FreezeScores(FSimScores(scores->key_set(), {value}, FSimStats{})),
        /*cache_k=*/2, meta, previous.get())));
  }
  const Status chain = snapshots.ValidateChain();
  EXPECT_TRUE(chain.ok()) << chain.ToString();
  const Status cache = snapshots.Acquire()->ValidateCache();
  EXPECT_TRUE(cache.ok()) << cache.ToString();
}

class StructureValidationEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    RunAllValidators();
    // Each validator must have run at least once this process — through the
    // audit above at minimum, plus any automatic FSIM_DEBUG_CHECKS hooks.
    for (const char* name :
         {"DynamicGraph::ValidateAdjacency", "PairStore::ValidateNeighborIndex",
          "IncrementalNeighborIndex::Validate", "ThreadPool::ValidateScheduler",
          "SnapshotStore::ValidateChain", "FSimSnapshot::ValidateCache"}) {
      EXPECT_GE(ValidatorCounters::Count(name), 1u)
          << "validator never executed: " << name;
    }
  }
};

// Registered at static-init time; gtest owns and runs it around the suite.
const ::testing::Environment* const kValidationEnv =
    ::testing::AddGlobalTestEnvironment(new StructureValidationEnvironment);

}  // namespace
}  // namespace fsim
