// The result of a ComputeFSim run: per-pair fractional χ-simulation scores
// with lookup and top-k queries, plus run statistics.
#ifndef FSIM_CORE_FSIM_SCORES_H_
#define FSIM_CORE_FSIM_SCORES_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_pair_map.h"
#include "graph/graph.h"

namespace fsim {

/// Statistics of a ComputeFSim run.
struct FSimStats {
  size_t theta_candidates = 0;  // pairs after the θ filter
  /// Pairs kept after β pruning. The first sweep evaluates all of them;
  /// later sweeps skip the constant ones (active_pairs_history).
  size_t maintained_pairs = 0;
  size_t pruned_pairs = 0;      // pairs removed by upper-bound updating
  uint32_t iterations = 0;
  bool converged = false;
  double final_delta = 0.0;
  double build_seconds = 0.0;
  double iterate_seconds = 0.0;
  /// True when the iterate loop ran on the pair-graph CSR neighbor index
  /// (false: hash-lookup fallback, e.g. budget exceeded or index disabled).
  bool used_neighbor_index = false;
  /// Heap footprint of the neighbor index (0 when not materialized).
  size_t neighbor_index_bytes = 0;
  /// True when the index used the packed 8-byte entry layout (16-bit
  /// row/col; degree-bounded graphs only).
  bool packed_neighbor_refs = false;
  /// Peak transient bytes held by the index build's per-chunk staging
  /// buffers (0 when the bounded count-then-fill build ran, or no index).
  size_t neighbor_index_peak_staging_bytes = 0;
  /// True when the index was built with the bounded (no-staging,
  /// classify-twice) passes because one-pass staging would have pushed peak
  /// build memory past FSimConfig::neighbor_index_budget_bytes.
  bool neighbor_index_bounded_build = false;
  /// max_{(u,v)} |FSim^k - FSim^{k-1}| per iteration, when
  /// FSimConfig::record_delta_history is set (Theorem 1: strictly
  /// decreasing).
  std::vector<double> delta_history;
  /// True when the iterate loop ran under active-set scheduling
  /// (FSimConfig::active_set != kOff and the CSR neighbor index present).
  bool active_set = false;
  /// Pairs evaluated per iteration, whatever the scheduling. The first
  /// entry is the maintained-pair count. With the neighbor index, later
  /// full sweeps evaluate only the live pairs (PairStore::LivePairs:
  /// constant pairs are final after the first sweep), and active-set
  /// frontiers shrink further as pairs freeze; without it every entry is
  /// the maintained-pair count.
  std::vector<size_t> active_pairs_history;
  /// Fraction of the iterate loop's pair evaluations skipped, by constant
  /// pairs and by the active set together:
  /// 1 - evaluated / (iterations * maintained_pairs). 0 without the
  /// neighbor index.
  double frozen_fraction = 0.0;
  /// Accumulated time spent building frontiers from the epoch-tagged dirty
  /// stamps (part of iterate_seconds).
  double frontier_build_seconds = 0.0;
  /// Iterations that ran as full sweeps: the first one, plus every
  /// frontier at or above FSimConfig::frontier_density_threshold.
  uint32_t full_sweep_iterations = 0;
};

/// The immutable pair set of a score table: the u-major sorted keys, the
/// key -> position index, and each row's range of positions. Edge edits
/// never change the θ-compatible pair set, so IncrementalFSim builds one at
/// Create and every score copy and snapshot taken from it shares that one
/// object; copying such scores copies only the values.
struct PairKeySet {
  std::vector<uint64_t> keys;  // sorted u-major
  FlatPairMap index;           // key -> position in keys
  // Row u holds positions [row_offsets[u], row_offsets[u + 1]); never empty.
  std::vector<uint32_t> row_offsets{0};

  /// Freezes `keys` (sorted u-major) with their position index, deriving
  /// row ranges for rows [0, max(num_rows, 1 + largest u in keys)).
  static std::shared_ptr<const PairKeySet> Make(std::vector<uint64_t> keys,
                                                FlatPairMap index,
                                                size_t num_rows = 0);

  size_t NumRows() const { return row_offsets.size() - 1; }

  /// [first, last) positions of row u; empty past the last row.
  std::pair<size_t, size_t> RowRange(NodeId u) const {
    if (u >= NumRows()) return {0, 0};
    return {row_offsets[u], row_offsets[u + 1]};
  }
};

using SharedPairKeySet = std::shared_ptr<const PairKeySet>;

/// Immutable score container: a shared key set plus this table's own
/// values (values()[i] scores keys()[i]). Pairs are sorted (u-major), so
/// all scores for one u form a contiguous range.
class FSimScores {
 public:
  FSimScores();
  /// Wraps `keys` (sorted u-major) and their index into a fresh key set.
  FSimScores(std::vector<uint64_t> keys, std::vector<double> values,
             FlatPairMap index, FSimStats stats);
  /// Scores over an existing key set; copies nothing of it.
  FSimScores(SharedPairKeySet key_set, std::vector<double> values,
             FSimStats stats);
  FSimScores(const FSimScores&) = default;
  FSimScores& operator=(const FSimScores&) = default;
  /// Moves leave the source empty (no pairs), not keyless.
  FSimScores(FSimScores&& other) noexcept;
  FSimScores& operator=(FSimScores&& other) noexcept;

  /// FSimχ(u, v); 0 for pairs outside the maintained candidate set.
  double Score(NodeId u, NodeId v) const {
    uint32_t idx = key_set_->index.Find(PairKey(u, v));
    return idx == FlatPairMap::kNotFound ? 0.0 : values_[idx];
  }

  /// True if (u,v) was maintained (score 0 is then a real score, not a
  /// missing pair).
  bool Contains(NodeId u, NodeId v) const {
    return key_set_->index.Find(PairKey(u, v)) != FlatPairMap::kNotFound;
  }

  size_t NumPairs() const { return key_set_->keys.size(); }

  /// The k highest-scoring v for a fixed u, descending (ties by node id).
  /// This is the paper's future-work top-k similarity query, answerable
  /// directly from the container. Bounded-heap selection: O(row log k) time
  /// and O(k) extra space, so serving-path calls never materialize a row.
  std::vector<std::pair<NodeId, double>> TopK(NodeId u, size_t k) const;

  /// TopK appending into a caller-owned buffer (no per-call allocation once
  /// out has capacity >= k); returns the number of entries appended.
  /// FSimSnapshot::ValidateCache checks each ranked row against it.
  size_t TopKInto(NodeId u, size_t k,
                  std::vector<std::pair<NodeId, double>>* out) const;

  /// All (v, score) for one u (unsorted by score; ascending v).
  std::vector<std::pair<NodeId, double>> Row(NodeId u) const;

  const std::vector<uint64_t>& keys() const { return key_set_->keys; }
  const std::vector<double>& values() const { return values_; }
  const FSimStats& stats() const { return stats_; }
  /// The shared key set; scores taken from one engine share one pointer.
  const SharedPairKeySet& key_set() const { return key_set_; }

 private:
  SharedPairKeySet key_set_;
  std::vector<double> values_;
  FSimStats stats_;
};

/// Descending score, ties broken by ascending node id — the ranking order of
/// every top-k surface (FSimScores::TopK, the snapshot rank order).
inline bool RanksBefore(const std::pair<NodeId, double>& a,
                        const std::pair<NodeId, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// A frozen, shareable score container. Snapshot-based consumers (the
/// serving layer) hold one of these per version; copies are refcount bumps.
using SharedFSimScores = std::shared_ptr<const FSimScores>;

/// Freezes a score container into shared ownership without copying the
/// score table (the moved-from object is left empty).
inline SharedFSimScores FreezeScores(FSimScores&& scores) {
  return std::make_shared<const FSimScores>(std::move(scores));
}

}  // namespace fsim

#endif  // FSIM_CORE_FSIM_SCORES_H_
