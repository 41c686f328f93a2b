// google-benchmark micro-benchmarks of the framework's hot paths: the
// greedy vs Hungarian realizations of the injective mapping operators (the
// ablation behind the paper's complexity claim in §4.2), the per-direction
// operator evaluation, the flat pair-map lookups that dominate
// Algorithm 1's inner loop.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_pair_map.h"
#include "common/random.h"
#include "core/operators.h"
#include "matching/greedy_matching.h"
#include "matching/hungarian.h"

namespace fsim {
namespace {

std::vector<WeightedEdge> RandomEdges(size_t n, Rng* rng) {
  std::vector<WeightedEdge> edges;
  edges.reserve(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      edges.push_back({static_cast<uint32_t>(i), static_cast<uint32_t>(j),
                       rng->NextDouble()});
    }
  }
  return edges;
}

void BM_GreedyMatching(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  auto edges = RandomEdges(n, &rng);
  MatchingScratch scratch;
  for (auto _ : state) {
    scratch.edges = edges;
    benchmark::DoNotOptimize(
        GreedyMaxWeightMatching(&scratch, n, n));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_GreedyMatching)->Arg(4)->Arg(16)->Arg(64)->Complexity();

void BM_HungarianMatching(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(42);
  std::vector<std::vector<double>> w(n, std::vector<double>(n));
  for (auto& row : w) {
    for (auto& x : row) x = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianMaxWeightMatching(w));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_HungarianMatching)->Arg(4)->Arg(16)->Arg(64)->Complexity();

void BM_DirectionScore(benchmark::State& state) {
  const SimVariant variant = static_cast<SimVariant>(state.range(0));
  const size_t deg = static_cast<size_t>(state.range(1));
  Rng rng(7);
  std::vector<double> scores(deg * deg);
  for (auto& s : scores) s = rng.NextDouble();
  std::vector<NodeId> s1(deg), s2(deg);
  for (size_t i = 0; i < deg; ++i) s1[i] = s2[i] = static_cast<NodeId>(i);
  auto lookup = [&](NodeId x, NodeId y) { return scores[x * deg + y]; };
  MatchingScratch scratch;
  const OperatorConfig op = OperatorsForVariant(variant);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DirectionScore(op, MatchingAlgo::kGreedy, s1,
                                            s2, lookup, &scratch));
  }
}
BENCHMARK(BM_DirectionScore)
    ->ArgsProduct({{0, 1, 2, 3}, {4, 16, 64}})
    ->ArgNames({"variant", "deg"});

void BM_FlatPairMapLookup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  FlatPairMap map(n);
  Rng rng(3);
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = rng.Next();
    map.Insert(keys[i], static_cast<uint32_t>(i));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Find(keys[i]));
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_FlatPairMapLookup)->Arg(1024)->Arg(65536)->Arg(1 << 20);

}  // namespace
}  // namespace fsim

BENCHMARK_MAIN();
