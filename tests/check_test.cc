// The correctness tooling layer (src/common/check.h, docs/correctness.md):
// FSIM_CHECK / FSIM_DCHECK semantics (including death on violation), the
// ValidatorCounters registry, and — the heart of the suite — proof that each
// structural validator actually catches corruption: every test deliberately
// breaks one invariant through a TestAccess backdoor and asserts the
// validator reports it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flat_pair_map.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/fsim_scores.h"
#include "core/fsim_config.h"
#include "core/incremental_index.h"
#include "core/pair_store.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"
#include "serve/snapshot.h"
#include "tests/test_graphs.h"

namespace fsim {

// Friend backdoors used to corrupt internal state; declared in the owning
// headers, defined here so production code cannot reach them.
struct PairStoreTestAccess {
  static std::vector<uint64_t>& Offsets(PairStore& s) { return s.nbr_offsets_; }
  static std::vector<NeighborRef>& Refs(PairStore& s) { return s.nbr_refs_; }
  static std::vector<PackedNeighborRef>& PackedRefs(PairStore& s) {
    return s.nbr_refs_packed_;
  }
  static bool Packed(const PairStore& s) { return s.packed_refs_; }
  static std::vector<uint32_t>& LivePairs(PairStore& s) {
    return s.live_pairs_;
  }
};

struct DynamicGraphTestAccess {
  static std::vector<std::vector<NodeId>>& Out(DynamicGraph& g) {
    return g.out_;
  }
  static std::vector<std::vector<NodeId>>& In(DynamicGraph& g) {
    return g.in_;
  }
  static size_t& NumEdges(DynamicGraph& g) { return g.num_edges_; }
};

struct SnapshotStoreTestAccess {
  static std::vector<uint64_t>& Chain(SnapshotStore& s) {
    return s.version_chain_;
  }
};

struct FSimSnapshotTestAccess {
  static std::vector<uint32_t>& Ranks(FSimSnapshot& s) { return s.ranks_; }
};

struct IncrementalNeighborIndexTestAccess {
  static uint64_t& Freed(IncrementalNeighborIndex& idx) { return idx.freed_; }
  static void ShrinkLastSpan(IncrementalNeighborIndex& idx) {
    // Dropping capacity without crediting freed_ breaks the slack equality.
    for (auto it = idx.spans_.rbegin(); it != idx.spans_.rend(); ++it) {
      if (it->capacity > 0) {
        --it->capacity;
        if (it->size > it->capacity) --it->size;
        return;
      }
    }
  }
  // Span metadata (offset, size, capacity), freed slack and arena entries
  // of `a` and `b` agree exactly.
  static ::testing::AssertionResult SameLayout(
      const IncrementalNeighborIndex& a, const IncrementalNeighborIndex& b) {
    if (a.spans_.size() != b.spans_.size() ||
        a.arena_.size() != b.arena_.size() || a.freed_ != b.freed_) {
      return ::testing::AssertionFailure()
             << "spans " << a.spans_.size() << " vs " << b.spans_.size()
             << ", arena " << a.arena_.size() << " vs " << b.arena_.size()
             << ", freed " << a.freed_ << " vs " << b.freed_;
    }
    for (size_t s = 0; s < a.spans_.size(); ++s) {
      const auto& x = a.spans_[s];
      const auto& y = b.spans_[s];
      if (x.offset != y.offset || x.size != y.size ||
          x.capacity != y.capacity) {
        return ::testing::AssertionFailure()
               << "span " << s << ": {" << x.offset << ", " << x.size << ", "
               << x.capacity << "} vs {" << y.offset << ", " << y.size
               << ", " << y.capacity << "}";
      }
    }
    for (size_t k = 0; k < a.arena_.size(); ++k) {
      const NeighborRef& x = a.arena_[k];
      const NeighborRef& y = b.arena_[k];
      if (x.row != y.row || x.col != y.col || x.ref != y.ref) {
        return ::testing::AssertionFailure() << "arena entry " << k;
      }
    }
    return ::testing::AssertionSuccess();
  }
  static void OverlapFirstTwoSpans(IncrementalNeighborIndex& idx) {
    size_t first = idx.spans_.size();
    for (size_t s = 0; s < idx.spans_.size(); ++s) {
      if (idx.spans_[s].capacity == 0) continue;
      if (first == idx.spans_.size()) {
        first = s;
      } else {
        idx.spans_[s].offset = idx.spans_[first].offset;
        return;
      }
    }
  }
};

namespace {

// ------------------------------------------------------- FSIM_CHECK family --

TEST(CheckDeathTest, FailedCheckAbortsWithConditionAndMessage) {
  EXPECT_DEATH(FSIM_CHECK(1 + 1 == 3) << "math broke: " << 42,
               "FSIM_CHECK failed: 1 \\+ 1 == 3.*math broke: 42");
}

TEST(CheckDeathTest, ComparisonVariantsAbort) {
  const int small = 3;
  const int big = 5;
  EXPECT_DEATH(FSIM_CHECK_EQ(small, big), "FSIM_CHECK failed");
  EXPECT_DEATH(FSIM_CHECK_GT(small, big), "FSIM_CHECK failed");
}

TEST(CheckTest, PassingChecksAreSilent) {
  FSIM_CHECK(true) << "never rendered";
  FSIM_CHECK_EQ(2, 2);
  FSIM_CHECK_LE(2, 3);
  // The message chain must not evaluate on the passing path (it sits on the
  // dead branch of the ternary).
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 0;
  };
  FSIM_CHECK(true) << count();
  EXPECT_EQ(evaluations, 0);
}

TEST(CheckTest, CheckNestsInUnbracedIfElse) {
  // Regression for the -Wdangling-else the old naked-if macro produced: the
  // voidify form must parse as a single statement.
  const bool flag = true;
  if (flag)
    FSIM_CHECK(flag);
  else
    FSIM_CHECK(!flag);
  SUCCEED();
}

TEST(CheckTest, DcheckConditionEvaluationMatchesBuildMode) {
  int evaluations = 0;
  auto observed = [&evaluations]() {
    ++evaluations;
    return true;
  };
  FSIM_DCHECK(observed());
#ifdef FSIM_DEBUG_CHECKS
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);  // compiled out: condition never runs
#endif
}

#ifdef FSIM_DEBUG_CHECKS
TEST(CheckDeathTest, DcheckAbortsInDebugChecksBuild) {
  EXPECT_DEATH(FSIM_DCHECK(false) << "debug only", "FSIM_CHECK failed");
}
#endif

TEST(ValidatorCountersTest, BumpCountSnapshot) {
  const uint64_t before = ValidatorCounters::Count("check_test.counter");
  ValidatorCounters::Bump("check_test.counter");
  ValidatorCounters::Bump("check_test.counter");
  EXPECT_EQ(ValidatorCounters::Count("check_test.counter"), before + 2);
  bool found = false;
  for (const auto& [name, count] : ValidatorCounters::Snapshot()) {
    if (name == "check_test.counter") {
      found = true;
      EXPECT_EQ(count, before + 2);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(ValidatorCounters::Count("check_test.never_bumped"), 0u);
}

// ------------------------------------------------ DynamicGraph corruption --

DynamicGraph MakeEditGraph() {
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.AddNode("x");
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 0);
  return DynamicGraph(std::move(b).BuildOrDie());
}

TEST(ValidateAdjacencyTest, CleanGraphPasses) {
  DynamicGraph g = MakeEditGraph();
  EXPECT_TRUE(g.ValidateAdjacency().ok());
  ASSERT_TRUE(g.InsertEdge(3, 0).ok());
  ASSERT_TRUE(g.RemoveEdge(0, 2).ok());
  EXPECT_TRUE(g.ValidateAdjacency().ok());
}

TEST(ValidateAdjacencyTest, CatchesUnsortedList) {
  DynamicGraph g = MakeEditGraph();
  auto& out0 = DynamicGraphTestAccess::Out(g)[0];
  ASSERT_GE(out0.size(), 2u);
  std::swap(out0[0], out0[1]);
  const Status st = g.ValidateAdjacency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("strictly ascending"), std::string::npos);
}

TEST(ValidateAdjacencyTest, CatchesMissingMirror) {
  DynamicGraph g = MakeEditGraph();
  // Edge (0, 1) exists; erase its in_-side mirror only.
  auto& in1 = DynamicGraphTestAccess::In(g)[1];
  in1.erase(in1.begin());
  const Status st = g.ValidateAdjacency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("missing from in"), std::string::npos);
}

TEST(ValidateAdjacencyTest, CatchesEdgeCountDrift) {
  DynamicGraph g = MakeEditGraph();
  ++DynamicGraphTestAccess::NumEdges(g);
  const Status st = g.ValidateAdjacency();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("edge accounting"), std::string::npos);
}

TEST(ValidateAdjacencyTest, CatchesOutOfRangeTarget) {
  DynamicGraph g = MakeEditGraph();
  DynamicGraphTestAccess::Out(g)[0].push_back(
      static_cast<NodeId>(g.NumNodes() + 7));
  EXPECT_FALSE(g.ValidateAdjacency().ok());
}

// --------------------------------------------------- PairStore corruption --

Result<PairStore> BuildSmallStore() {
  const Graph g = fsim::testing::MakeFigure1().data;
  FSimConfig config;  // default budget materializes the neighbor index
  LabelSimilarityCache lsim(*g.dict(), config.label_sim);
  return PairStore::Build(g, g, config, lsim);
}

TEST(ValidateNeighborIndexTest, CleanStorePasses) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE(store->ValidateNeighborIndex().ok());
}

TEST(ValidateNeighborIndexTest, CatchesNonMonotoneOffsets) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  auto& offsets = PairStoreTestAccess::Offsets(*store);
  ASSERT_GE(offsets.size(), 3u);
  // Tear the CSR: a span whose end precedes its start.
  size_t target = 0;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] > 0) {
      target = i;
      break;
    }
  }
  ASSERT_GT(target, 0u);
  const uint64_t saved = offsets[target];
  offsets[target] = 0;
  if (saved == offsets.back()) offsets[target] = saved;  // keep arena total
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      EXPECT_FALSE(store->ValidateNeighborIndex().ok());
      return;
    }
  }
  // Fallback (all offsets still monotone): shrink the last offset so the
  // arena accounting breaks instead.
  offsets.back() -= 1;
  EXPECT_FALSE(store->ValidateNeighborIndex().ok());
}

TEST(ValidateNeighborIndexTest, CatchesOutOfRangeRef) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  if (PairStoreTestAccess::Packed(*store)) {
    auto& refs = PairStoreTestAccess::PackedRefs(*store);
    ASSERT_FALSE(refs.empty());
    refs[0].ref = 0x7FFFFFFFu;  // untagged, far past the pair count
  } else {
    auto& refs = PairStoreTestAccess::Refs(*store);
    ASSERT_FALSE(refs.empty());
    refs[0].ref = 0x7FFFFFFFu;
  }
  const Status st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
}

TEST(ValidateNeighborIndexTest, CatchesUnsortedSpan) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  const auto& offsets = PairStoreTestAccess::Offsets(*store);
  // Find a span with at least two entries and swap them.
  size_t begin = 0;
  size_t len = 0;
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    if (offsets[s + 1] - offsets[s] >= 2) {
      begin = static_cast<size_t>(offsets[s]);
      len = static_cast<size_t>(offsets[s + 1] - offsets[s]);
      break;
    }
  }
  ASSERT_GE(len, 2u) << "test graph too sparse for a 2-entry span";
  if (PairStoreTestAccess::Packed(*store)) {
    auto& refs = PairStoreTestAccess::PackedRefs(*store);
    std::swap(refs[begin], refs[begin + 1]);
  } else {
    auto& refs = PairStoreTestAccess::Refs(*store);
    std::swap(refs[begin], refs[begin + 1]);
  }
  const Status st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("sorted"), std::string::npos);
}

TEST(ValidateNeighborIndexTest, CatchesWrongLivePairs) {
  auto store = BuildSmallStore();
  ASSERT_TRUE(store.ok());
  auto& live = PairStoreTestAccess::LivePairs(*store);
  ASSERT_FALSE(live.empty());
  ASSERT_LT(live.size(), store->size()) << "test graph has no constant pair";
  const std::vector<uint32_t> saved = live;

  // A live pair left out.
  live.erase(live.begin());
  Status st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("omits"), std::string::npos);

  // A constant pair listed.
  live = saved;
  uint32_t constant = 0;
  while (std::binary_search(live.begin(), live.end(), constant)) ++constant;
  live.insert(std::lower_bound(live.begin(), live.end(), constant), constant);
  st = store->ValidateNeighborIndex();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("reads no maintained score"),
            std::string::npos);

  // A pair listed twice, and two entries out of order.
  live = saved;
  live.push_back(live.back());
  EXPECT_FALSE(store->ValidateNeighborIndex().ok());
  live = saved;
  if (live.size() >= 2) {
    std::swap(live[0], live[1]);
    EXPECT_FALSE(store->ValidateNeighborIndex().ok());
  }
  live = saved;
  EXPECT_TRUE(store->ValidateNeighborIndex().ok());
}

// ------------------------------------- IncrementalNeighborIndex corruption --

struct IncrementalFixture {
  IncrementalFixture()
      : graph(MakeEditGraph()),
        lsim(*graph.dict(), LabelSimKind::kIndicator) {
    const size_t n = graph.NumNodes();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const uint64_t key = PairKey(u, v);
        pair_index.Insert(key, static_cast<uint32_t>(keys.size()));
        keys.push_back(key);
      }
    }
    FSimConfig config;
    const NeighborIndexEnv env{graph, graph, pair_index, lsim};
    built = index.Build(env, keys, config);
  }

  DynamicGraph graph;
  LabelSimilarityCache lsim;
  FlatPairMap pair_index;
  std::vector<uint64_t> keys;
  IncrementalNeighborIndex index;
  bool built = false;
};

TEST(IncrementalIndexValidateTest, CleanIndexPasses) {
  IncrementalFixture f;
  ASSERT_TRUE(f.built);
  EXPECT_TRUE(f.index.Validate(f.keys.size()).ok());
}

TEST(IncrementalIndexValidateTest, CatchesLeakedSlack) {
  IncrementalFixture f;
  ASSERT_TRUE(f.built);
  IncrementalNeighborIndexTestAccess::Freed(f.index) += 3;
  const Status st = f.index.Validate(f.keys.size());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("slack accounting"), std::string::npos);
}

TEST(IncrementalIndexValidateTest, CatchesShrunkSpanCapacity) {
  IncrementalFixture f;
  ASSERT_TRUE(f.built);
  IncrementalNeighborIndexTestAccess::ShrinkLastSpan(f.index);
  EXPECT_FALSE(f.index.Validate(f.keys.size()).ok());
}

TEST(IncrementalIndexValidateTest, CatchesOverlappingSpans) {
  IncrementalFixture f;
  ASSERT_TRUE(f.built);
  IncrementalNeighborIndexTestAccess::OverlapFirstTwoSpans(f.index);
  EXPECT_FALSE(f.index.Validate(f.keys.size()).ok());
}

TEST(IncrementalIndexValidateTest, WrongPairCountRejected) {
  IncrementalFixture f;
  ASSERT_TRUE(f.built);
  EXPECT_FALSE(f.index.Validate(f.keys.size() + 1).ok());
}

// The pooled staged fill lays the index out exactly as the inline one —
// same span metadata, same arena — and the two stay equal under Restage.
TEST(IncrementalNeighborIndexTest, PoolBuildEqualsInlineBuild) {
  const Graph g = fsim::testing::MakeRandomPair(73, 240, 10, 20).g1;
  ThreadPool pool(4);
  for (double theta : {0.0, 0.4, 1.0}) {
    for (bool pin_diagonal : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "theta " << theta << " pin_diagonal " << pin_diagonal);
      FSimConfig config;
      config.label_sim = LabelSimKind::kEditDistance;
      config.theta = theta;
      config.pin_diagonal = pin_diagonal;
      LabelSimilarityCache lsim(*g.dict(), config.label_sim);
      auto store = PairStore::Build(g, g, config, lsim,
                                    /*build_neighbor_index=*/false, &pool);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      const std::vector<uint64_t> keys = store->TakeKeys();
      const FlatPairMap index = store->TakeIndex();
      DynamicGraph d1(g);
      DynamicGraph d2(g);
      const NeighborIndexEnv env{d1, d2, index, lsim};
      IncrementalNeighborIndex pooled;
      IncrementalNeighborIndex inline_built;
      ASSERT_TRUE(pooled.Build(env, keys, config, &pool));
      ASSERT_TRUE(inline_built.Build(env, keys, config, nullptr));
      EXPECT_TRUE(
          IncrementalNeighborIndexTestAccess::SameLayout(pooled, inline_built));
      EXPECT_TRUE(pooled.Validate(keys.size()).ok());

      // A 20-edit stream over both graphs, re-staging what each edit
      // invalidates (out-spans of the source's row or column, in-spans of
      // the target's).
      Rng rng(7300);
      for (int e = 0; e < 20; ++e) {
        const int graph_index = rng.Next() % 2 == 0 ? 1 : 2;
        DynamicGraph& target = graph_index == 1 ? d1 : d2;
        const auto n = static_cast<NodeId>(target.NumNodes());
        const auto from = static_cast<NodeId>(rng.Next() % n);
        const auto to = static_cast<NodeId>(rng.Next() % n);
        const Status edit = target.HasEdge(from, to)
                                ? target.RemoveEdge(from, to)
                                : target.InsertEdge(from, to);
        ASSERT_TRUE(edit.ok()) << edit.ToString();
        for (size_t i = 0; i < keys.size(); ++i) {
          const NodeId u = PairFirst(keys[i]);
          const NodeId v = PairSecond(keys[i]);
          const NodeId node = graph_index == 1 ? u : v;
          for (IncrementalNeighborIndex* idx : {&pooled, &inline_built}) {
            if (node == from) {
              idx->Restage(i, IncrementalNeighborIndex::kOut, u, v, env);
            }
            if (node == to) {
              idx->Restage(i, IncrementalNeighborIndex::kIn, u, v, env);
            }
          }
        }
      }
      EXPECT_GT(pooled.restaged_spans(), 0u);
      EXPECT_TRUE(
          IncrementalNeighborIndexTestAccess::SameLayout(pooled, inline_built));
      const Status valid = pooled.Validate(keys.size());
      EXPECT_TRUE(valid.ok()) << valid.ToString();
    }
  }
}

// ------------------------------------------------ SnapshotStore corruption --

SnapshotPtr MakeSnapshot(SnapshotStore& store) {
  FlatPairMap index(1);
  index.Insert(PairKey(0, 0), 0);
  FSimScores scores({PairKey(0, 0)}, {1.0}, std::move(index), FSimStats{});
  SnapshotMeta meta;
  meta.version = store.NextVersion();
  return std::make_shared<const FSimSnapshot>(
      FreezeScores(std::move(scores)), /*cache_k=*/2, meta);
}

TEST(ValidateChainTest, CleanChainPasses) {
  SnapshotStore store;
  EXPECT_TRUE(store.ValidateChain().ok());  // empty store is valid
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  EXPECT_TRUE(store.ValidateChain().ok());
  EXPECT_EQ(store.version(), 2u);
}

TEST(ValidateChainTest, CatchesRegressedChain) {
  SnapshotStore store;
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  auto& chain = SnapshotStoreTestAccess::Chain(store);
  ASSERT_EQ(chain.size(), 2u);
  std::swap(chain[0], chain[1]);
  const Status st = store.ValidateChain();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("regresses"), std::string::npos);
}

TEST(ValidateChainTest, CatchesHeadVersionMismatch) {
  SnapshotStore store;
  EXPECT_TRUE(store.Publish(MakeSnapshot(store)));
  auto& chain = SnapshotStoreTestAccess::Chain(store);
  ASSERT_EQ(chain.size(), 1u);
  chain[0] += 5;  // chain claims a version the head does not carry
  EXPECT_FALSE(store.ValidateChain().ok());
}

TEST(ValidateChainTest, StalePublishRejectedAndChainStaysValid) {
  SnapshotStore store;
  SnapshotPtr first = MakeSnapshot(store);   // version 1
  SnapshotPtr second = MakeSnapshot(store);  // version 2
  EXPECT_TRUE(store.Publish(second));
  EXPECT_FALSE(store.Publish(first));  // stale: dropped
  EXPECT_TRUE(store.ValidateChain().ok());
  EXPECT_EQ(store.version(), 2u);
}

// -------------------------------------------------- rank order corruption --

/// A 1 x 4 score table (row 0 scores 0.9, 0.7, 0.5, 0.3), ranked.
FSimSnapshot MakeRankedSnapshot() {
  std::vector<uint64_t> keys;
  FlatPairMap index(4);
  for (NodeId v = 0; v < 4; ++v) {
    index.Insert(PairKey(0, v), static_cast<uint32_t>(keys.size()));
    keys.push_back(PairKey(0, v));
  }
  return FSimSnapshot(
      FreezeScores(FSimScores(std::move(keys), {0.9, 0.7, 0.5, 0.3},
                              std::move(index), FSimStats{})),
      /*cache_k=*/2, SnapshotMeta{});
}

TEST(ValidateCacheTest, CleanCachePasses) {
  const FSimSnapshot snapshot = MakeRankedSnapshot();
  EXPECT_TRUE(snapshot.ValidateCache().ok());
}

TEST(ValidateCacheTest, CatchesSwappedRankedPositions) {
  FSimSnapshot snapshot = MakeRankedSnapshot();
  std::vector<uint32_t>& ranks = FSimSnapshotTestAccess::Ranks(snapshot);
  std::swap(ranks[2], ranks[3]);  // 0.3 now ranks before 0.5
  const Status st = snapshot.ValidateCache();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("cold sort at rank 2"), std::string::npos);
}

// ---------------------------------------------------- ThreadPool validator --

TEST(ValidateSchedulerTest, CleanAfterStealHeavyRegions) {
  ThreadPool pool(4);
  std::vector<uint64_t> out(4096, 0);
  for (int round = 0; round < 3; ++round) {
    pool.ParallelForChunked(out.size(), 8, [&out](int, size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) out[i] += i;
    });
  }
  EXPECT_TRUE(pool.ValidateScheduler().ok());
  const ThreadPool::SchedulerStats scheduler_stats = pool.stats();
  EXPECT_EQ(scheduler_stats.chunks_dealt, scheduler_stats.chunks_executed);
  EXPECT_GT(scheduler_stats.chunks_executed, 0u);
}

}  // namespace
}  // namespace fsim
