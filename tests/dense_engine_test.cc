// Equivalence tests for the label-class indexed dense engine
// (core/dense_index.h): across every MappingKind x OmegaKind operator
// combination and both matching realizations, ComputeFSimDense must agree
// with the sparse engine on every maintained pair to 1e-12 — and its
// label-class indexed fast path must agree with its per-visit lookup
// fallback on the full matrix. The grouped enumeration visits candidates
// in class-grouped order; row/column maxima and the matching realizations
// are order-exact (original positions key the tie-breaks), so only the
// final additive reductions reassociate — far below the 1e-12 pin.
//
// Plus unit coverage for DenseFSimScores::TopK tie-breaking, and a
// differential of FSimScores::TopKInto against a full sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "common/flat_pair_map.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/dense_engine.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/fsim_scores.h"
#include "graph/graph_builder.h"

namespace fsim {
namespace {

constexpr double kTolerance = 1e-12;

/// A random labeled digraph where every node has out- and in-degree >= 1
/// (a ring plus random chords), so no operator/omega combination divides by
/// a zero normalizer. Labels are two-letter strings with nontrivial mutual
/// edit similarity, giving θ a real compatibility structure.
Graph MakeDenseRandomGraph(uint64_t seed, uint32_t n = 20) {
  static const char* kLabels[] = {"aa", "ab", "bb", "bc"};
  Rng rng(seed);
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddNode(kLabels[rng.Next() % 4]);
  }
  for (uint32_t i = 0; i < n; ++i) {
    builder.AddEdge(i, (i + 1) % n);
  }
  for (uint32_t e = 0; e < 2 * n; ++e) {
    NodeId from = static_cast<NodeId>(rng.Next() % n);
    NodeId to = static_cast<NodeId>(rng.Next() % n);
    if (from != to) builder.AddEdge(from, to);
  }
  return std::move(builder).BuildOrDie();
}

const char* MappingName(MappingKind kind) {
  switch (kind) {
    case MappingKind::kMaxPerRow: return "MaxPerRow";
    case MappingKind::kInjectiveRow: return "InjectiveRow";
    case MappingKind::kMaxBothSides: return "MaxBothSides";
    case MappingKind::kInjectiveSym: return "InjectiveSym";
    case MappingKind::kProduct: return "Product";
  }
  return "Unknown";
}

const char* OmegaName(OmegaKind kind) {
  switch (kind) {
    case OmegaKind::kSizeS1: return "SizeS1";
    case OmegaKind::kSumSizes: return "SumSizes";
    case OmegaKind::kGeoMean: return "GeoMean";
    case OmegaKind::kMaxSize: return "MaxSize";
    case OmegaKind::kProduct: return "Product";
  }
  return "Unknown";
}

using DenseParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class DenseEngineOperatorSweep : public ::testing::TestWithParam<DenseParam> {
};

/// θ = 0: the sparse engine maintains every |V1| x |V2| pair, so the dense
/// and sparse engines compute the identical fixed point over the identical
/// pair set — the full-matrix differential check of the issue's sweep.
TEST_P(DenseEngineOperatorSweep, DenseMatchesSparseOnAllPairs) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/7 + static_cast<int>(omega));
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;

  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  ASSERT_EQ(sparse->NumPairs(), g.NumNodes() * g.NumNodes());

  auto dense = ComputeFSimDense(g, g, config);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  EXPECT_TRUE(dense->stats().used_neighbor_index);
  EXPECT_GT(dense->stats().neighbor_index_bytes, 0u);
  EXPECT_EQ(sparse->stats().iterations, dense->stats().iterations);

  for (uint64_t key : sparse->keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    ASSERT_NEAR(sparse->Score(u, v), dense->Score(u, v), kTolerance)
        << "pair (" << u << ", " << v << ")";
  }
}

/// θ > 0 with a non-indicator L: multi-class compatibility bitsets and the
/// class-skipping enumeration, cross-checked against the dense engine's own
/// per-visit lookup fallback on the *full* matrix (including pairs the
/// sparse engine would not maintain).
TEST_P(DenseEngineOperatorSweep, IndexedMatchesLookupFallback) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/23 + static_cast<int>(omega));
  FSimConfig config;
  config.operator_override = OperatorConfig{mapping, omega};
  config.matching = matching;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-4;

  config.neighbor_index_budget_bytes = 1ULL << 30;
  auto indexed = ComputeFSimDense(g, g, config);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_TRUE(indexed->stats().used_neighbor_index);

  config.neighbor_index_budget_bytes = 0;
  auto fallback = ComputeFSimDense(g, g, config);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_FALSE(fallback->stats().used_neighbor_index);
  EXPECT_EQ(fallback->stats().neighbor_index_bytes, 0u);

  EXPECT_EQ(indexed->stats().iterations, fallback->stats().iterations);
  ASSERT_EQ(indexed->values().size(), fallback->values().size());
  for (size_t i = 0; i < indexed->values().size(); ++i) {
    ASSERT_FALSE(std::isnan(indexed->values()[i])) << "entry " << i;
    ASSERT_NEAR(indexed->values()[i], fallback->values()[i], kTolerance)
        << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorCombinations, DenseEngineOperatorSweep,
    ::testing::Combine(
        ::testing::Values(MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
                          MappingKind::kMaxBothSides,
                          MappingKind::kInjectiveSym, MappingKind::kProduct),
        ::testing::Values(OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                          OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                          OmegaKind::kProduct),
        ::testing::Values(MatchingAlgo::kGreedy, MatchingAlgo::kHungarian)),
    [](const ::testing::TestParamInfo<DenseParam>& param_info) {
      return std::string(MappingName(std::get<0>(param_info.param))) + "_" +
             OmegaName(std::get<1>(param_info.param)) + "_" +
             (std::get<2>(param_info.param) == MatchingAlgo::kHungarian
                  ? "Hungarian"
                  : "Greedy");
    });

TEST(DenseEngineTest, BudgetFallbackStillMatchesSparse) {
  // A budget too small for the label-class table forces the lookup path;
  // scores must not change.
  const Graph g = MakeDenseRandomGraph(41);
  FSimConfig config;
  config.variant = SimVariant::kBijective;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.epsilon = 1e-4;
  config.neighbor_index_budget_bytes = 64;

  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse.ok());
  auto dense = ComputeFSimDense(g, g, config);
  ASSERT_TRUE(dense.ok());
  EXPECT_FALSE(dense->stats().used_neighbor_index);
  for (uint64_t key : sparse->keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    ASSERT_NEAR(sparse->Score(u, v), dense->Score(u, v), kTolerance);
  }
}

TEST(DenseEngineTest, TopKBreaksTiesByNodeId) {
  // Row 0: v1 carries the top score; v0 and v2 tie below it and must be
  // returned in ascending node-id order; v3 trails.
  FSimStats stats;
  DenseFSimScores scores(2, 4,
                         {0.5, 0.9, 0.5, 0.1,  //
                          0.2, 0.2, 0.2, 0.2},
                         stats);
  auto top = scores.TopK(0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], (std::pair<NodeId, double>{1, 0.9}));
  EXPECT_EQ(top[1], (std::pair<NodeId, double>{0, 0.5}));
  EXPECT_EQ(top[2], (std::pair<NodeId, double>{2, 0.5}));

  // k beyond the row clamps; an all-tied row comes back in id order.
  auto row1 = scores.TopK(1, 10);
  ASSERT_EQ(row1.size(), 4u);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(row1[v].first, v);
    EXPECT_DOUBLE_EQ(row1[v].second, 0.2);
  }

  // The same ranking through FSimScores::TopKInto, whose warm heap skips
  // every candidate below its top: random sparse rows drawn from five score
  // levels (so ties are everywhere) against a full sort, with k at 1, 3,
  // the row length and past it, appending behind existing entries.
  Rng rng(0x70C);
  constexpr NodeId kRows = 24;
  constexpr NodeId kCols = 64;
  std::vector<uint64_t> keys;
  std::vector<double> values;
  FlatPairMap index;
  for (NodeId u = 0; u < kRows; ++u) {
    for (NodeId v = 0; v < kCols; ++v) {
      if (!rng.NextBernoulli(0.6)) continue;
      index.Insert(PairKey(u, v), static_cast<uint32_t>(keys.size()));
      keys.push_back(PairKey(u, v));
      values.push_back(0.25 * static_cast<double>(rng.NextBounded(5)));
    }
  }
  const FSimScores sparse(std::move(keys), std::move(values), std::move(index),
                          stats);
  for (NodeId u = 0; u < kRows; ++u) {
    auto ranked = sparse.Row(u);
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      if (x.second != y.second) return x.second > y.second;
      return x.first < y.first;
    });
    const size_t len = ranked.size();
    for (size_t k : {size_t{1}, size_t{3}, len, len + 5}) {
      const std::vector<std::pair<NodeId, double>> prefix = {{7, 2.0},
                                                             {3, -1.0}};
      std::vector<std::pair<NodeId, double>> out = prefix;
      const size_t added = sparse.TopKInto(u, k, &out);
      const size_t want = std::min(k, len);
      ASSERT_EQ(added, want) << "u=" << u << " k=" << k;
      ASSERT_EQ(out.size(), prefix.size() + want);
      EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
      for (size_t i = 0; i < want; ++i) {
        EXPECT_EQ(out[prefix.size() + i], ranked[i])
            << "u=" << u << " k=" << k << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace fsim
