// Lockstep tests for the delta-driven active-set iterate driver
// (core/pair_evaluator.h ActiveSetDriver, docs/performance.md "Active-set
// iteration"): exact mode must be bit-identical to full sweeps — same
// scores, same iteration count, same convergence decision — across the
// MappingKind x OmegaKind x matching x θ sweep, including the
// dense-frontier fallback, single-direction configs (whose reverse
// dependency lists come from the opposite-direction spans), the
// AsUndirected adaptation (out-span doubles as its own dependent list),
// pruned-ref skipping, and the top-k and incremental engines that share
// the machinery. Tolerance mode must stay within its documented
// frontier_tolerance * (1 + w) / (1 - w) error bound while actually
// skipping work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <tuple>

#include "common/random.h"
#include "core/fsim_config.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "core/pair_store.h"
#include "core/topk_allpairs.h"
#include "datasets/dataset_registry.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "label/label_similarity.h"

namespace fsim {
namespace {

/// A random labeled digraph where every node has out- and in-degree >= 1
/// (a ring plus random chords), as in tests/neighbor_index_test.cc.
Graph MakeDenseRandomGraph(uint64_t seed, uint32_t n = 24) {
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

/// A directed chain: dependencies have bounded depth, so pairs freeze
/// *exactly* (bit-level) wave by wave from the chain's tail — the
/// deterministic workload where exact-mode frontiers provably shrink.
Graph MakeChainGraph(uint32_t n = 30) {
  static const char* kLabels[] = {"x", "y"};
  GraphBuilder builder;
  for (uint32_t i = 0; i < n; ++i) builder.AddNode(kLabels[i % 2]);
  for (uint32_t i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1);
  return std::move(builder).BuildOrDie();
}

/// Runs `config` with the exact active set (marking from iteration 1) and
/// with the active set off, and asserts the runs are indistinguishable:
/// same pair set, same scores bit for bit, same iteration count and
/// convergence flag.
void ExpectExactLockstep(const Graph& g, FSimConfig config,
                         const std::string& context) {
  config.neighbor_index_budget_bytes = 1ULL << 30;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;  // pin the frontier path
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok()) << context << ": " << active.status().ToString();
  EXPECT_TRUE(active->stats().active_set) << context;

  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok()) << context << ": " << off.status().ToString();
  EXPECT_FALSE(off->stats().active_set) << context;

  ASSERT_EQ(active->keys().size(), off->keys().size()) << context;
  EXPECT_EQ(active->stats().iterations, off->stats().iterations) << context;
  EXPECT_EQ(active->stats().converged, off->stats().converged) << context;
  for (size_t i = 0; i < active->keys().size(); ++i) {
    ASSERT_EQ(active->keys()[i], off->keys()[i]) << context;
    // Bit-identical, not just close: frozen pairs carry their exact value.
    ASSERT_EQ(active->values()[i], off->values()[i])
        << context << " pair " << i << " (u="
        << PairFirst(active->keys()[i]) << ", v="
        << PairSecond(active->keys()[i]) << ")";
  }
  const auto& history = active->stats().active_pairs_history;
  ASSERT_EQ(history.size(), active->stats().iterations) << context;
  if (!history.empty()) {
    EXPECT_EQ(history.front(), active->stats().maintained_pairs) << context;
  }
}

const MappingKind kAllMappings[] = {
    MappingKind::kMaxPerRow, MappingKind::kInjectiveRow,
    MappingKind::kMaxBothSides, MappingKind::kInjectiveSym,
    MappingKind::kProduct};
const OmegaKind kAllOmegas[] = {OmegaKind::kSizeS1, OmegaKind::kSumSizes,
                                OmegaKind::kGeoMean, OmegaKind::kMaxSize,
                                OmegaKind::kProduct};

using SweepParam = std::tuple<MappingKind, OmegaKind, MatchingAlgo>;

class ActiveSetLockstep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ActiveSetLockstep, ExactModeMatchesFullSweeps) {
  const auto [mapping, omega, matching] = GetParam();
  const Graph g = MakeDenseRandomGraph(/*seed=*/11 + static_cast<int>(omega));
  for (double theta : {0.0, 0.4}) {
    FSimConfig config;
    config.operator_override = OperatorConfig{mapping, omega};
    config.matching = matching;
    config.label_sim = LabelSimKind::kEditDistance;
    config.theta = theta;
    config.w_out = 0.35;
    config.w_in = 0.35;
    config.epsilon = 1e-6;  // enough iterations for frontiers to matter
    ExpectExactLockstep(g, config,
                        "theta=" + std::to_string(theta));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Operators, ActiveSetLockstep,
    ::testing::Combine(::testing::ValuesIn(kAllMappings),
                       ::testing::ValuesIn(kAllOmegas),
                       ::testing::Values(MatchingAlgo::kGreedy,
                                         MatchingAlgo::kHungarian)));

// On the chain, dependencies have bounded depth, so the exact frontier
// must actually shrink (pairs freeze bit-exactly wave by wave) and the
// sparse-commit path is exercised for real.
TEST(ActiveSetExact, ChainFrontierShrinks) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.epsilon = 1e-12;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  const auto& stats = active->stats();
  ASSERT_TRUE(stats.active_set);
  ASSERT_GT(stats.active_pairs_history.size(), 2u);
  EXPECT_LT(stats.active_pairs_history.back(),
            stats.active_pairs_history.front());
  EXPECT_GT(stats.frozen_fraction, 0.1);
  EXPECT_LT(stats.full_sweep_iterations, stats.iterations);

  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(active->keys().size(), off->keys().size());
  EXPECT_EQ(active->stats().iterations, off->stats().iterations);
  for (size_t i = 0; i < active->values().size(); ++i) {
    ASSERT_EQ(active->values()[i], off->values()[i]) << "pair " << i;
  }
}

// The default activation policy (deferred marking) must not change results
// either — only when marking starts.
TEST(ActiveSetExact, DefaultActivationLockstep) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.4;
  config.w_in = 0.3;
  config.epsilon = 1e-10;
  auto active = ComputeFSimSelf(g, config);  // defaults: kExact, 0.125
  ASSERT_TRUE(active.ok());
  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(active->stats().iterations, off->stats().iterations);
  for (size_t i = 0; i < active->values().size(); ++i) {
    ASSERT_EQ(active->values()[i], off->values()[i]) << "pair " << i;
  }
}

// frontier_density_threshold = 0 forces every iteration through the
// full-sweep fallback; the run must still be bit-identical and report
// full_sweep_iterations == iterations.
TEST(ActiveSetExact, DenseFrontierFallback) {
  const Graph g = MakeChainGraph();
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.epsilon = 1e-12;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;
  config.frontier_density_threshold = 0.0;
  auto dense = ComputeFSimSelf(g, config);
  ASSERT_TRUE(dense.ok());
  EXPECT_EQ(dense->stats().full_sweep_iterations, dense->stats().iterations);
  config.frontier_density_threshold = 1.0;
  auto sparse = ComputeFSimSelf(g, config);
  ASSERT_TRUE(sparse.ok());
  EXPECT_LT(sparse->stats().full_sweep_iterations,
            sparse->stats().iterations);
  ASSERT_EQ(dense->values().size(), sparse->values().size());
  for (size_t i = 0; i < dense->values().size(); ++i) {
    ASSERT_EQ(dense->values()[i], sparse->values()[i]) << "pair " << i;
  }
}

// Single-direction configs: the reverse-dependency lists come from the
// opposite-direction spans, which exist only for the active set's sake.
TEST(ActiveSetExact, SimRankConfigLockstep) {
  LabelingOptions lo;
  lo.num_labels = 1;
  const Graph g = ErdosRenyi(14, 40, lo, 31);
  FSimConfig config = SimRankFSimConfig(0.8);  // w_out = 0, pin_diagonal
  config.epsilon = 1e-8;
  ExpectExactLockstep(g, config, "simrank");
}

TEST(ActiveSetExact, RoleSimUndirectedLockstep) {
  LabelingOptions lo;
  lo.num_labels = 1;
  const Graph g = ErdosRenyi(12, 30, lo, 47).AsUndirected();
  FSimConfig config = RoleSimFSimConfig(0.15);  // w_in = 0, empty in-lists
  config.epsilon = 1e-8;
  ExpectExactLockstep(g, config, "rolesim");
}

// A single-direction config doubles its span bound when the active set
// widens the index (at θ = 0, Σ outdeg(u)·outdeg(v) = Σ indeg(u)·indeg(v)
// = |E|²). When only the widened layout blows the budget, the build must
// fall back to the evaluation-only index — index still used, active set
// reporting off, scores unchanged — instead of dropping the index.
TEST(ActiveSetExact, BudgetFallsBackToEvaluationOnlyIndex) {
  const Graph g = MakeDenseRandomGraph(3, 12);
  FSimConfig config;
  config.w_out = 0.7;
  config.w_in = 0.0;
  config.theta = 0.0;
  config.epsilon = 1e-6;
  config.use_packed_neighbor_refs = false;
  const uint64_t pairs =
      static_cast<uint64_t>(g.NumNodes()) * g.NumNodes();
  const uint64_t edges = g.NumEdges();
  const uint64_t bound_base =
      edges * edges * sizeof(NeighborRef) + (2 * pairs + 1) * sizeof(uint64_t);
  config.neighbor_index_budget_bytes = bound_base;  // widened = 2x entries
  auto limited = ComputeFSimSelf(g, config);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_TRUE(limited->stats().used_neighbor_index);
  EXPECT_FALSE(limited->stats().active_set);

  config.neighbor_index_budget_bytes = 1ULL << 30;
  auto active = ComputeFSimSelf(g, config);
  ASSERT_TRUE(active.ok());
  EXPECT_TRUE(active->stats().active_set);

  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(limited->values().size(), off->values().size());
  for (size_t i = 0; i < off->values().size(); ++i) {
    ASSERT_EQ(limited->values()[i], off->values()[i]) << "pair " << i;
    ASSERT_EQ(active->values()[i], off->values()[i]) << "pair " << i;
  }
}

// Upper-bound pruning with α > 0 plants tagged pruned-table refs in the
// spans; frontier marking must skip them (their bounds never change).
TEST(ActiveSetExact, PrunedRefsAreSkipped) {
  const Graph g = MakeDenseRandomGraph(5);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.upper_bound = true;
  config.alpha = 0.3;
  config.beta = 0.35;
  config.epsilon = 1e-8;
  ExpectExactLockstep(g, config, "pruned-alpha");
}

// Tolerance mode: scores stay within frontier_tolerance * (1 + w) / (1 - w)
// of the full-sweep scores (both runs converged far below the tolerance,
// so the termination residual is negligible), and work is actually skipped.
TEST(ActiveSetTolerance, ErrorBoundHolds) {
  const Graph g = MakeDenseRandomGraph(21);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.0;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-9;
  config.active_set = ActiveSetMode::kTolerance;
  config.frontier_tolerance = 1e-3;
  config.active_set_activation_fraction = 0.0;
  auto tol = ComputeFSimSelf(g, config);
  ASSERT_TRUE(tol.ok()) << tol.status().ToString();
  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeFSimSelf(g, config);
  ASSERT_TRUE(off.ok());

  const double w = config.w_out + config.w_in;
  const double bound =
      config.frontier_tolerance * (1.0 + w) / (1.0 - w) + 1e-6;
  double max_diff = 0.0;
  for (size_t i = 0; i < tol->values().size(); ++i) {
    max_diff = std::max(max_diff,
                        std::abs(tol->values()[i] - off->values()[i]));
  }
  EXPECT_LE(max_diff, bound);
  // The skipping must be real: fewer evaluations than iterations * pairs.
  EXPECT_GT(tol->stats().frozen_fraction, 0.0);
  EXPECT_LE(tol->stats().iterations, off->stats().iterations);
}

// The top-k all-pairs engine shares the driver; its certified result must
// not depend on the scheduling mode.
TEST(ActiveSetTopK, TopKPairsLockstep) {
  const Graph g = MakeDenseRandomGraph(9);
  FSimConfig config;
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = 0.4;
  config.w_out = 0.35;
  config.w_in = 0.35;
  config.epsilon = 1e-6;
  config.active_set = ActiveSetMode::kExact;
  config.active_set_activation_fraction = 0.0;
  TopKPairsOptions options;
  options.k = 8;
  options.exclude_diagonal = true;
  auto active = ComputeTopKPairs(g, g, config, options);
  ASSERT_TRUE(active.ok()) << active.status().ToString();
  config.active_set = ActiveSetMode::kOff;
  auto off = ComputeTopKPairs(g, g, config, options);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(active->pairs.size(), off->pairs.size());
  EXPECT_EQ(active->iterations, off->iterations);
  EXPECT_EQ(active->certified, off->certified);
  for (size_t i = 0; i < active->pairs.size(); ++i) {
    EXPECT_EQ(active->pairs[i].u, off->pairs[i].u) << i;
    EXPECT_EQ(active->pairs[i].v, off->pairs[i].v) << i;
    EXPECT_EQ(active->pairs[i].score, off->pairs[i].score) << i;
  }
}

// IncrementalFSim's initial solve honors the active-set config (the
// serving layer's warm-start path); exact mode must match the off-mode
// solve bit for bit, on transpose-consistent and undirected graphs alike.
TEST(ActiveSetIncremental, InitialSolveLockstep) {
  LabelingOptions lo;
  lo.num_labels = 3;
  const Graph directed = ErdosRenyi(16, 48, lo, 77);
  LabelingOptions lo1;
  lo1.num_labels = 1;
  const Graph undirected = ErdosRenyi(12, 30, lo1, 13).AsUndirected();
  struct Case {
    const Graph* g;
    FSimConfig config;
    const char* name;
  };
  FSimConfig plain;
  plain.w_out = 0.4;
  plain.w_in = 0.4;
  plain.epsilon = 1e-8;
  FSimConfig rolesim = RoleSimFSimConfig(0.15);
  rolesim.epsilon = 1e-8;
  const Case cases[] = {{&directed, plain, "directed"},
                        {&undirected, rolesim, "undirected"}};
  for (const Case& c : cases) {
    FSimConfig config = c.config;
    config.active_set = ActiveSetMode::kExact;
    config.active_set_activation_fraction = 0.0;
    auto active = IncrementalFSim::Create(*c.g, *c.g, config);
    ASSERT_TRUE(active.ok()) << c.name << ": "
                             << active.status().ToString();
    config.active_set = ActiveSetMode::kOff;
    auto off = IncrementalFSim::Create(*c.g, *c.g, config);
    ASSERT_TRUE(off.ok()) << c.name;
    FSimScores a = active->Snapshot();
    FSimScores b = off->Snapshot();
    ASSERT_EQ(a.values().size(), b.values().size()) << c.name;
    EXPECT_EQ(a.stats().converged, b.stats().converged) << c.name;
    for (size_t i = 0; i < a.values().size(); ++i) {
      ASSERT_EQ(a.values()[i], b.values()[i]) << c.name << " pair " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Constant pairs: a pair none of whose evaluated spans holds an untagged ref
// (or a pinned diagonal pair) is final after the first sweep, and every
// indexed sweep after it evaluates only PairStore::LivePairs(). The oracle
// is the hash-lookup path (neighbor_index_budget_bytes = 0), which still
// evaluates every pair in every sweep.

/// The amazon analog at 1/32 of its registry size (same label count,
/// degree caps and skew): as at full size, about half of its θ = 1 pairs
/// have no label-compatible neighbor pair.
const Graph& SmallAmazon() {
  static const Graph g = [] {
    DatasetSpec spec = DatasetSpecByName("amazon").ValueOrDie();
    spec.nodes /= 32;
    spec.edges /= 32;
    return MakeDataset(spec);
  }();
  return g;
}

/// Pairs whose Eq. 3 value reads a maintained score, counted from the
/// graph and the result's key set alone: not a pinned diagonal pair, and
/// some maintained (x, y) in N+(u) x N+(v) (w+ > 0) or N-(u) x N-(v)
/// (w- > 0).
size_t CountLivePairs(const Graph& g, const FSimConfig& config,
                      const FSimScores& scores) {
  auto reads = [&](std::span<const NodeId> s1, std::span<const NodeId> s2) {
    for (NodeId x : s1) {
      for (NodeId y : s2) {
        if (scores.Contains(x, y)) return true;
      }
    }
    return false;
  };
  size_t live = 0;
  for (uint64_t key : scores.keys()) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    if (config.pin_diagonal && u == v) continue;
    if ((config.w_out > 0.0 && reads(g.OutNeighbors(u), g.OutNeighbors(v))) ||
        (config.w_in > 0.0 && reads(g.InNeighbors(u), g.InNeighbors(v)))) {
      ++live;
    }
  }
  return live;
}

/// Runs `config` on `g` through the hash-lookup path and through the index
/// with the active set off and exact, at 1 and 4 threads, and asserts the
/// indexed runs match it bit for bit while skipping the constant pairs:
/// after the first sweep, every kOff sweep evaluates exactly the live
/// pairs, fewer than the maintained ones, and no kExact sweep more.
void ExpectConstantPairsSkipped(const Graph& g, FSimConfig config,
                                const std::string& context) {
  config.neighbor_index_budget_bytes = 0;
  config.num_threads = 1;
  auto lookup = ComputeFSimSelf(g, config);
  ASSERT_TRUE(lookup.ok()) << context << ": " << lookup.status().ToString();
  ASSERT_FALSE(lookup->stats().used_neighbor_index) << context;
  const FSimStats& ls = lookup->stats();
  ASSERT_EQ(ls.active_pairs_history.size(), ls.iterations) << context;
  for (size_t evaluated : ls.active_pairs_history) {
    EXPECT_EQ(evaluated, ls.maintained_pairs) << context;
  }
  EXPECT_EQ(ls.frozen_fraction, 0.0) << context;
  const size_t live = CountLivePairs(g, config, *lookup);
  ASSERT_LT(live, ls.maintained_pairs) << context << ": no constant pairs";

  config.neighbor_index_budget_bytes = 1ULL << 30;
  for (ActiveSetMode mode : {ActiveSetMode::kOff, ActiveSetMode::kExact}) {
    for (int threads : {1, 4}) {
      const std::string what =
          context + (mode == ActiveSetMode::kOff ? " off" : " exact") +
          " t" + std::to_string(threads);
      config.active_set = mode;
      config.num_threads = threads;
      auto indexed = ComputeFSimSelf(g, config);
      ASSERT_TRUE(indexed.ok()) << what << ": "
                                << indexed.status().ToString();
      const FSimStats& is = indexed->stats();
      ASSERT_TRUE(is.used_neighbor_index) << what;
      EXPECT_EQ(is.iterations, ls.iterations) << what;
      EXPECT_EQ(is.converged, ls.converged) << what;
      ASSERT_EQ(indexed->keys(), lookup->keys()) << what;
      for (size_t i = 0; i < lookup->values().size(); ++i) {
        ASSERT_EQ(indexed->values()[i], lookup->values()[i])
            << what << " pair " << i << " (u=" << PairFirst(lookup->keys()[i])
            << ", v=" << PairSecond(lookup->keys()[i]) << ")";
      }
      const auto& history = is.active_pairs_history;
      ASSERT_EQ(history.size(), is.iterations) << what;
      EXPECT_EQ(history.front(), is.maintained_pairs) << what;
      // Exact mode sweeps the live pairs too, or a frontier below the
      // density threshold of them.
      for (size_t k = 1; k < history.size(); ++k) {
        if (mode == ActiveSetMode::kOff) {
          EXPECT_EQ(history[k], live) << what << " sweep " << k + 1;
        } else {
          EXPECT_LE(history[k], live) << what << " sweep " << k + 1;
        }
      }
      if (mode == ActiveSetMode::kOff && is.iterations > 1) {
        const double evaluated = static_cast<double>(
            is.maintained_pairs + (is.iterations - 1) * live);
        EXPECT_DOUBLE_EQ(is.frozen_fraction,
                         1.0 - evaluated / (is.iterations *
                                            static_cast<double>(
                                                is.maintained_pairs)))
            << what;
      }
    }
  }
}

FSimConfig SmallAmazonConfig(SimVariant variant, double theta) {
  FSimConfig config;
  config.variant = variant;
  config.w_out = 0.4;
  config.w_in = 0.4;
  // Edit distance keeps θ = 0.4 selective (Jaro-Winkler passes every
  // pair of the generator's label names there).
  config.label_sim = LabelSimKind::kEditDistance;
  config.theta = theta;
  config.epsilon = 1e-3;
  return config;
}

TEST(ActiveSetConstantPairs, VariantsMatchLookupPath) {
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    for (double theta : {0.4, 1.0}) {
      ExpectConstantPairsSkipped(
          SmallAmazon(), SmallAmazonConfig(variant, theta),
          std::string(SimVariantName(variant)) +
              " theta=" + std::to_string(theta));
    }
  }
}

// The skip starts at sweep 2 and needs sweep 1's values in both buffers:
// runs stopped after 1, 2 and 3 sweeps must match too.
TEST(ActiveSetConstantPairs, FirstSweepsMatchLookupPath) {
  for (uint32_t max_iterations : {1u, 2u, 3u}) {
    FSimConfig config = SmallAmazonConfig(SimVariant::kSimple, 1.0);
    config.max_iterations = max_iterations;
    config.epsilon = 1e-300;
    ExpectConstantPairsSkipped(
        SmallAmazon(), config,
        "max_iterations=" + std::to_string(max_iterations));
  }
}

// One evaluated direction with the diagonal pinned to 1: pinned pairs are
// constant although other pairs read them, and spans of the unevaluated
// direction (kept as reverse-dependency lists in exact mode) do not make a
// pair live.
TEST(ActiveSetConstantPairs, PinnedSingleDirectionMatchesLookupPath) {
  FSimConfig config = RoleSimFSimConfig(0.15);  // w_in = 0
  config.pin_diagonal = true;
  config.theta = 1.0;
  config.label_sim = LabelSimKind::kJaroWinkler;
  config.epsilon = 1e-6;
  ExpectConstantPairsSkipped(SmallAmazon(), config, "pinned w_in=0");
}

// Upper-bound pruning with α > 0: a pair whose spans hold only tagged
// (pruned-bound) refs reads constants, so it is constant itself.
TEST(ActiveSetConstantPairs, PrunedOnlyRefsMatchLookupPath) {
  FSimConfig config = SmallAmazonConfig(SimVariant::kSimple, 0.4);
  config.upper_bound = true;
  config.alpha = 0.3;
  config.beta = 0.5;
  LabelSimilarityCache lsim(*SmallAmazon().dict(), config.label_sim);
  auto store = PairStore::Build(SmallAmazon(), SmallAmazon(), config, lsim);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->has_neighbor_index());
  ASSERT_GT(store->info().pruned, 0u);
  // Some constant pair has refs, all of them tagged.
  const auto live = store->LivePairs();
  size_t pruned_only = 0;
  for (size_t i = 0; i < store->size(); ++i) {
    if (store->RefSpanTotal(i) > 0 &&
        !std::binary_search(live.begin(), live.end(),
                            static_cast<uint32_t>(i))) {
      ++pruned_only;
    }
  }
  EXPECT_GT(pruned_only, 0u);
  ExpectConstantPairsSkipped(SmallAmazon(), config, "pruned alpha=0.3");
}

// ComputeTopKPairs runs the same driver: its certified pairs, scores and
// sweep count match the lookup path's.
TEST(ActiveSetConstantPairs, TopKPairsMatchLookupPath) {
  FSimConfig config = SmallAmazonConfig(SimVariant::kSimple, 1.0);
  TopKPairsOptions options;
  options.k = 20;
  options.exclude_diagonal = true;
  config.neighbor_index_budget_bytes = 0;
  auto lookup = ComputeTopKPairs(SmallAmazon(), SmallAmazon(), config,
                                 options);
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  config.neighbor_index_budget_bytes = 1ULL << 30;
  for (ActiveSetMode mode : {ActiveSetMode::kOff, ActiveSetMode::kExact}) {
    config.active_set = mode;
    auto indexed = ComputeTopKPairs(SmallAmazon(), SmallAmazon(), config,
                                    options);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    EXPECT_EQ(indexed->iterations, lookup->iterations);
    EXPECT_EQ(indexed->certified, lookup->certified);
    ASSERT_EQ(indexed->pairs.size(), lookup->pairs.size());
    for (size_t i = 0; i < lookup->pairs.size(); ++i) {
      EXPECT_EQ(indexed->pairs[i].u, lookup->pairs[i].u) << i;
      EXPECT_EQ(indexed->pairs[i].v, lookup->pairs[i].v) << i;
      EXPECT_EQ(indexed->pairs[i].score, lookup->pairs[i].score) << i;
    }
  }
}

// Invalid active-set knobs are rejected up front.
TEST(ActiveSetConfig, Validation) {
  const Graph g = MakeChainGraph(6);
  FSimConfig config;
  config.active_set = ActiveSetMode::kTolerance;
  config.frontier_tolerance = 0.0;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.frontier_tolerance = 1e-3;
  config.frontier_density_threshold = 1.5;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.frontier_density_threshold = 0.5;
  config.active_set_activation_fraction = -0.1;
  EXPECT_FALSE(ComputeFSimSelf(g, config).ok());
  config.active_set_activation_fraction = 0.125;
  EXPECT_TRUE(ComputeFSimSelf(g, config).ok());
}

}  // namespace
}  // namespace fsim
