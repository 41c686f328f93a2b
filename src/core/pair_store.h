// The candidate-pair store of Algorithm 1: which node pairs (u, v) are
// maintained in the hash maps Hc/Hp, their double-buffered scores, the
// side table of upper bounds for pruned pairs (upper-bound updating, §3.4),
// and the pair-graph CSR neighbor index that turns the iterate loop's score
// lookups into direct array reads.
#ifndef FSIM_CORE_PAIR_STORE_H_
#define FSIM_CORE_PAIR_STORE_H_

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/flat_pair_map.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/operators.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// Candidate pairs with previous/current score buffers.
///
/// Construction applies the two optimizations:
///  * label-constrained mapping: with θ > 0 only pairs with L(u,v) >= θ are
///    enumerated (Remark 2 — pairs below θ can never be mapped, so they
///    never contribute);
///  * upper-bound updating: pairs whose Eq. 6 bound is <= β are dropped; if
///    α > 0 their bounds are kept in a side table so lookups can return
///    α * bound.
///
/// When config.neighbor_index_budget_bytes allows, Build additionally
/// materializes the pair-graph CSR neighbor index: for every maintained pair
/// i = (u, v) and each direction with nonzero weight, the NeighborRef list of
/// label-compatible candidate pairs (x, y) ∈ N±(u) x N±(v) sorted by
/// (row, col). Iterating then reads previous-iteration scores by direct
/// indexing (prev_data() / pruned ref tag) instead of hash probes.
class PairStore {
 public:
  struct BuildInfo {
    size_t theta_candidates = 0;  // pairs surviving the θ filter
    size_t kept = 0;              // pairs actually maintained
    size_t pruned = 0;            // pairs dropped by the upper bound
    /// Peak bytes held in the neighbor-index build's per-chunk staging
    /// buffers (all alive simultaneously at the classify/copy barrier).
    /// 0 under the bounded build, which stages nothing.
    size_t peak_staging_bytes = 0;
    /// True when the index was built with the bounded count-then-fill
    /// passes because the one-pass staging would have pushed transient
    /// memory past neighbor_index_budget_bytes (classifies twice, but peak
    /// build memory stays at the final index footprint).
    bool bounded_staging_build = false;
  };

  /// Enumerates and initializes the candidate pairs. Fails with
  /// InvalidArgument if the candidate count would exceed config.pair_limit.
  /// `build_neighbor_index` lets callers that never run the Algorithm 1
  /// iterate loop (e.g. incremental maintenance) skip the index build.
  /// `pool` runs every stage in parallel chunks — row-major candidate
  /// enumeration, the Eq. 6 bounds, the FSim^0 initialization and the
  /// index fill (the engines pass their pool); nullptr runs the same code
  /// inline on the caller.
  static Result<PairStore> Build(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config,
                                 const LabelSimilarityCache& lsim,
                                 bool build_neighbor_index = true,
                                 ThreadPool* pool = nullptr);

  size_t size() const { return keys_.size(); }
  NodeId U(size_t i) const { return PairFirst(keys_[i]); }
  NodeId V(size_t i) const { return PairSecond(keys_[i]); }

  double prev(size_t i) const { return prev_[i]; }
  void set_curr(size_t i, double value) { curr_[i] = value; }
  void SwapBuffers() { prev_.swap(curr_); }

  /// Copies pair i's just-evaluated current value into the previous-score
  /// buffer — the active-set driver's selective forward copy. A frontier
  /// sweep writes curr_ only at the evaluated positions, so a wholesale
  /// SwapBuffers would expose stale entries; instead the driver commits
  /// exactly the evaluated pairs (O(|frontier|), after the sweep's last
  /// read of prev_) and every frozen pair keeps its score in place for
  /// free. Full sweeps keep using SwapBuffers.
  void CommitPair(size_t i) { prev_[i] = curr_[i]; }

  /// Index of (u,v) in the store, or FlatPairMap::kNotFound.
  uint32_t Find(NodeId u, NodeId v) const {
    return index_.Find(PairKey(u, v));
  }

  /// Eq. 6 upper bound of a pruned pair (0 when untracked, i.e. α == 0).
  double PrunedUpperBound(NodeId u, NodeId v) const {
    uint32_t idx = pruned_index_.Find(PairKey(u, v));
    return idx == FlatPairMap::kNotFound ? 0.0 : pruned_ub_[idx];
  }

  /// True if the pair-graph CSR neighbor index was materialized (it fits
  /// config.neighbor_index_budget_bytes and the build was requested).
  bool has_neighbor_index() const { return has_neighbor_index_; }

  /// True when the index uses the packed 8-byte entry layout (16-bit
  /// row/col) — selected automatically when every relevant neighbor-list
  /// position fits (see FSimConfig::use_packed_neighbor_refs). Callers
  /// read through OutRefsPacked/InRefsPacked then, OutRefs/InRefs
  /// otherwise.
  bool packed_refs() const { return packed_refs_; }

  /// True when the index was built with the widened active-set span
  /// layout (opposite-direction spans + pinned diagonal spans kept), so
  /// the spans are usable as reverse-dependency lists. False when only
  /// the widening would have blown neighbor_index_budget_bytes and the
  /// build fell back to the evaluation-only layout — the active-set
  /// driver then runs full sweeps instead of disabling the index.
  bool reverse_spans() const { return reverse_spans_; }

  /// Out-direction CSR entries of pair i: the label-compatible candidate
  /// pairs of N+(u) x N+(v), sorted by (row, col). Empty when the index was
  /// not materialized. With the active set off, diagonal pairs of a
  /// pin_diagonal run and zero-weight directions also have empty spans
  /// (never evaluated); with it on, a direction is additionally
  /// materialized when the *opposite* weight is nonzero — the refs of the
  /// in-span are exactly the pairs reading (u, v) through their
  /// out-direction (x ∈ N-(u), y ∈ N-(v)), and vice versa, so each span
  /// doubles as the pair's reverse-dependency list for frontier marking —
  /// and pinned diagonal spans are kept so the init -> 1 snap of the first
  /// sweep can notify its dependents.
  std::span<const NeighborRef> OutRefs(size_t i) const {
    if (!has_neighbor_index_) return {};
    FSIM_DCHECK(!packed_refs_);
    return {nbr_refs_.data() + nbr_offsets_[2 * i],
            nbr_refs_.data() + nbr_offsets_[2 * i + 1]};
  }

  /// In-direction CSR entries of pair i (N-(u) x N-(v)).
  std::span<const NeighborRef> InRefs(size_t i) const {
    if (!has_neighbor_index_) return {};
    FSIM_DCHECK(!packed_refs_);
    return {nbr_refs_.data() + nbr_offsets_[2 * i + 1],
            nbr_refs_.data() + nbr_offsets_[2 * i + 2]};
  }

  /// Packed-layout counterparts of OutRefs/InRefs.
  std::span<const PackedNeighborRef> OutRefsPacked(size_t i) const {
    if (!has_neighbor_index_) return {};
    FSIM_DCHECK(packed_refs_);
    return {nbr_refs_packed_.data() + nbr_offsets_[2 * i],
            nbr_refs_packed_.data() + nbr_offsets_[2 * i + 1]};
  }
  std::span<const PackedNeighborRef> InRefsPacked(size_t i) const {
    if (!has_neighbor_index_) return {};
    FSIM_DCHECK(packed_refs_);
    return {nbr_refs_packed_.data() + nbr_offsets_[2 * i + 1],
            nbr_refs_packed_.data() + nbr_offsets_[2 * i + 2]};
  }

  /// Total CSR entries of pair i across both directions — an O(1) upper
  /// bound on how many (pair, direction) dependents a change at i can wake.
  /// The active-set driver sums this over changed pairs while marking is
  /// still deferred, to predict whether a frontier would skip anything.
  size_t RefSpanTotal(size_t i) const {
    return has_neighbor_index_
               ? static_cast<size_t>(nbr_offsets_[2 * i + 2] -
                                     nbr_offsets_[2 * i])
               : 0;
  }

  /// Ascending indices of the live pairs: those whose Eq. 3 value reads a
  /// maintained score, i.e. some evaluated span (out when w+ > 0, in when
  /// w- > 0) holds an untagged ref. Every other pair is constant — its
  /// spans are empty or read only Eq. 6 bounds, or it is a pinned diagonal
  /// pair — so its value is final after the first sweep, and sweeps after
  /// it evaluate only this list (docs/performance.md "Constant pairs").
  /// Empty when the index was not materialized.
  std::span<const uint32_t> LivePairs() const { return live_pairs_; }

  /// Previous-iteration scores, indexed by untagged NeighborRef::ref values.
  /// The pointer is stable across SwapBuffers only if re-read afterwards.
  const double* prev_data() const { return prev_.data(); }

  /// Eq. 6 bounds of tracked pruned pairs, indexed by tagged refs.
  const float* pruned_bounds_data() const { return pruned_ub_.data(); }

  /// Heap footprint of the neighbor index (0 when not materialized).
  size_t NeighborIndexBytes() const {
    return nbr_refs_.capacity() * sizeof(NeighborRef) +
           nbr_refs_packed_.capacity() * sizeof(PackedNeighborRef) +
           nbr_offsets_.capacity() * sizeof(uint64_t);
  }

  const BuildInfo& info() const { return info_; }

  /// Structural invariants of the CSR neighbor index: the offsets array is
  /// monotone and accounts for exactly the ref arena (no slack — the batch
  /// index is built tight, unlike the incremental arena's tracked slack),
  /// exactly one entry layout is populated (per packed_refs()), every
  /// untagged ref targets a maintained pair, every tagged ref targets a
  /// tracked pruned bound, each span is strictly (row, col)-sorted, and
  /// LivePairs() is strictly ascending and lists exactly the pairs with an
  /// untagged ref in an evaluated span (pinned diagonal pairs excluded).
  /// Trivially OK when the index was not materialized. O(entries); runs
  /// automatically after Build under FSIM_DEBUG_CHECKS. Bumps
  /// ValidatorCounters "PairStore::ValidateNeighborIndex".
  Status ValidateNeighborIndex() const;

  /// Moves the final scores out (call after the last SwapBuffers, so prev_
  /// holds the converged values).
  std::vector<uint64_t> TakeKeys() { return std::move(keys_); }
  std::vector<double> TakeScores() { return std::move(prev_); }
  FlatPairMap TakeIndex() { return std::move(index_); }

 private:
  PairStore() = default;

  // check_test.cc corrupts the index through this to prove the validator
  // catches torn spans; nothing else may touch the internals.
  friend struct PairStoreTestAccess;

  /// Materializes the CSR neighbor index if it fits the budget, choosing
  /// the packed or wide entry layout.
  void BuildNeighborIndex(const Graph& g1, const Graph& g2,
                          const FSimConfig& config,
                          const LabelSimilarityCache& lsim, ThreadPool& pool);

  /// Classifies every pair's candidate entries into `refs` through the
  /// shared staged fill (core/neighbor_fill.h); `bounded_staging` selects
  /// its count-then-fill mode. Ref is NeighborRef or PackedNeighborRef.
  /// `active_spans` selects the widened active-set span layout (see
  /// reverse_spans()).
  template <typename Ref>
  void FillNeighborRefs(const Graph& g1, const Graph& g2,
                        const FSimConfig& config,
                        const LabelSimilarityCache& lsim, ThreadPool& pool,
                        bool bounded_staging, bool active_spans,
                        std::vector<Ref>* refs);

  /// Collects live_pairs_ from the finished index (see LivePairs()).
  void CollectLivePairs(ThreadPool& pool);

  /// True when pair i's Eq. 3 evaluation reads a maintained score: it is
  /// not a pinned diagonal pair and an evaluated span holds an untagged
  /// ref.
  bool ReadsMaintainedScore(size_t i) const;

  std::vector<uint64_t> keys_;  // sorted ascending: u-major, then v
  FlatPairMap index_;
  std::vector<double> prev_;
  std::vector<double> curr_;
  FlatPairMap pruned_index_;
  std::vector<float> pruned_ub_;
  BuildInfo info_;

  // Pair-graph CSR neighbor index. nbr_offsets_ has 2 * size() + 1 entries:
  // pair i's out-direction entries live in [offsets[2i], offsets[2i+1]) and
  // its in-direction entries in [offsets[2i+1], offsets[2i+2]). Exactly one
  // of the two entry arrays is populated, per packed_refs_.
  bool has_neighbor_index_ = false;
  bool packed_refs_ = false;
  bool reverse_spans_ = false;
  // The directions Eq. 3 evaluates (nonzero weight) and the pin_diagonal
  // flag, recorded with the index so liveness can be re-derived.
  bool evaluates_out_ = false;
  bool evaluates_in_ = false;
  bool pin_diagonal_ = false;
  std::vector<uint64_t> nbr_offsets_;
  std::vector<NeighborRef> nbr_refs_;
  std::vector<PackedNeighborRef> nbr_refs_packed_;
  std::vector<uint32_t> live_pairs_;  // ascending; see LivePairs()
};

/// Race-free, allocation-free (after Init) construction of the next
/// active-set frontier. While sweeping, workers stamp the dependents of
/// every changed pair into epoch-tagged dirty arrays (a stamp equal to
/// the current epoch means "marked this iteration" — no clearing between
/// iterations, ever); BuildNext then scans the stamps once and emits the
/// ascending list of pairs to evaluate next.
///
/// Exact mode stamps into ONE shared array of relaxed atomics: every
/// concurrent writer stores the same epoch value, so ordering is
/// irrelevant, and memory stays O(num_pairs) regardless of worker count.
/// Tolerance mode needs per-worker influence sums, so it keeps one stamp
/// + float array per worker; there, a pair enters the frontier only once
/// its *carried* influence — accumulated across iterations while it was
/// being skipped — exceeds the tolerance. That is the incremental
/// engine's pending-bound scheme (core/incremental.h), so the same
/// τ·(1+w)/(1-w) error bound applies against the exact-mode scores.
class FrontierTracker {
 public:
  /// Sizes the stamp arrays: one shared atomic array (exact) or one stamp
  /// + influence array per worker (tolerance).
  void Init(size_t num_pairs, int num_workers, bool tolerance);

  /// Opens the next iteration's epoch; marks stamped from now on belong to
  /// the frontier *after* the upcoming sweep.
  void BeginIteration() { ++epoch_; }
  uint32_t epoch() const { return epoch_; }

  /// Exact mode: the shared stamp array (store the current epoch with
  /// std::memory_order_relaxed).
  std::atomic<uint32_t>* shared_stamps() { return shared_stamps_.get(); }

  /// Tolerance mode: the calling worker's stamp / influence arrays
  /// (hot-path raw pointers; one cache-resident array per worker, no
  /// false sharing of the accumulators).
  uint32_t* stamps(int worker) { return stamps_[worker].data(); }
  float* influence(int worker) { return influence_[worker].data(); }

  /// Collects the pairs stamped in the current epoch (exact mode) or whose
  /// carried influence exceeds `tolerance` (tolerance mode) into
  /// `*frontier`, ascending. Two chunked parallel passes (count, then
  /// fill), reusing the frontier's and the scratch's capacity.
  /// `previous_sweep_was_full` (tolerance mode): every pair was just
  /// evaluated, so influence carried from before that sweep is absorbed
  /// and only the fresh epoch's marks count.
  void BuildNext(ThreadPool& pool, double tolerance,
                 bool previous_sweep_was_full,
                 std::vector<uint32_t>* frontier);

 private:
  size_t num_pairs_ = 0;
  bool tolerance_ = false;
  uint32_t epoch_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> shared_stamps_;  // exact mode
  std::vector<std::vector<uint32_t>> stamps_;     // per worker, tolerance
  std::vector<std::vector<float>> influence_;     // per worker, tolerance
  std::vector<double> carry_;       // cross-iteration pending influence
  std::vector<uint32_t> chunk_offsets_;  // BuildNext count/fill scratch
};

}  // namespace fsim

#endif  // FSIM_CORE_PAIR_STORE_H_
