// Versioned, immutable score snapshots — the unit of publication of the
// serving layer (serve/service.h). A snapshot freezes one FSimScores table
// (shared, never copied after freeze), ranks every row once so TopK and
// ThresholdNeighbors never scan or sort a row, and carries version/
// provenance metadata. SnapshotStore is the publish/read rendezvous:
// publishing swaps the current snapshot under the publisher mutex; a single
// query reads it through a per-thread pin that costs one shared load and no
// shared write while the version is unchanged, and an owning Acquire()
// hands out a reference for batches. A snapshot stays alive until its last
// reference — the store's, a reader's, or a thread's pin — drops it.
#ifndef FSIM_SERVE_SNAPSHOT_H_
#define FSIM_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/fsim_scores.h"
#include "graph/graph.h"

namespace fsim {

/// Provenance and freshness metadata of one published snapshot.
struct SnapshotMeta {
  /// Strictly increasing across publishes into one SnapshotStore
  /// (SnapshotStore::NextVersion hands out the numbers).
  uint64_t version = 0;
  /// Total edits reflected in these scores since the serving engine started.
  uint64_t edits_applied = 0;
  /// Whether the producing engine reports full convergence (see
  /// IncrementalFSim::converged()).
  bool converged = true;
  /// Upper bound on |served score - exact fixpoint| for every pair (see
  /// IncrementalFSim::error_bound()); +∞ when no bound is known (not
  /// converged, or warm-started from disk).
  double error_bound = std::numeric_limits<double>::infinity();
  /// True when the scores were warm-started from disk (scores_io) rather
  /// than computed in-process.
  bool warm_start = false;
  /// Wall-clock cost of building this snapshot: the producer's score
  /// copy/load cost (pre-filled by the caller) plus the row ranking (added
  /// by the FSimSnapshot constructor).
  double build_seconds = 0.0;
};

/// How the rows of one snapshot's rank order were obtained (rows with no
/// pairs are not counted).
struct CacheBuildStats {
  size_t carried = 0;     // values bitwise unchanged: previous order copied
  size_t repaired = 0;    // changed: previous order merged with the changes
  size_t reselected = 0;  // sorted cold (no usable previous snapshot)
};

/// An immutable, query-ready view of one score version: frozen shared
/// scores plus every row's rank order (descending score, ties by node id).
class FSimSnapshot {
 public:
  /// Ranks every row of `scores`. With a `previous` snapshot over the same
  /// key set (the same FSimScores::key_set() pointer) its order is carried
  /// forward: a row whose values are bitwise unchanged copies previous's
  /// order, and a changed row keeps its unchanged positions in previous's
  /// order and merges in its changed positions, sorted — O(r + c log c) for
  /// c changes in a row of r. Without a usable `previous` (a cold build)
  /// every row is sorted. Either way the order equals a cold sort's
  /// exactly. `pool`, when given, sorts the rows of a cold build in
  /// parallel; it must not run another region meanwhile. `cache_k` is the
  /// depth of over-budget (degraded) answers, see QueryEngine::Answer.
  FSimSnapshot(SharedFSimScores scores, size_t cache_k, SnapshotMeta meta,
               const FSimSnapshot* previous = nullptr,
               ThreadPool* pool = nullptr);

  /// FSimχ(u, v); 0 for pairs outside the maintained candidate set.
  double PairScore(NodeId u, NodeId v) const { return scores_->Score(u, v); }

  bool Contains(NodeId u, NodeId v) const { return scores_->Contains(u, v); }

  /// Row u's positions (indices into scores().keys() and values()) in rank
  /// order: descending score, ties by node id. Empty for nodes without
  /// maintained pairs.
  std::span<const uint32_t> RankedRow(NodeId u) const {
    const auto [first, last] = scores_->key_set()->RowRange(u);
    return {ranks_.data() + first, last - first};
  }

  /// The min(k, |row u|) best (v, score) for u, descending (ties by node
  /// id): a copy of the ranked prefix, O(k) for every k.
  std::vector<std::pair<NodeId, double>> TopK(NodeId u, size_t k) const;

  /// How many entries of row u score >= tau: a binary search over the
  /// ranked row, O(log |row|).
  size_t CountAtLeast(NodeId u, double tau) const;

  /// All (v, score) of row u with score >= tau, descending (ties by id),
  /// in O(log |row| + answer).
  std::vector<std::pair<NodeId, double>> ThresholdNeighbors(NodeId u,
                                                            double tau) const {
    return TopK(u, CountAtLeast(u, tau));
  }

  const FSimScores& scores() const { return *scores_; }
  SharedFSimScores shared_scores() const { return scores_; }
  const SnapshotMeta& meta() const { return meta_; }
  /// Depth of an over-budget (degraded) TOPK or THRESH answer.
  size_t cache_k() const { return cache_k_; }

  /// How this snapshot's rows were ranked.
  const CacheBuildStats& cache_build_stats() const { return cache_stats_; }

  /// Heap footprint of the rank order (4 bytes per pair).
  size_t CacheBytes() const { return ranks_.capacity() * sizeof(uint32_t); }

  /// Compares every row's rank order with a cold FSimScores::TopKInto
  /// selection of the whole row. Runs automatically after every
  /// carried-forward build under FSIM_DEBUG_CHECKS. Bumps
  /// ValidatorCounters "FSimSnapshot::ValidateCache".
  Status ValidateCache() const;

 private:
  // check_test.cc corrupts the rank order through this to prove
  // ValidateCache catches it.
  friend struct FSimSnapshotTestAccess;

  /// Per-worker state of one ranking walk.
  struct RankScratch {
    std::vector<uint32_t> kept;     // unchanged positions, previous order
    std::vector<uint32_t> changed;  // changed positions
    CacheBuildStats stats;
  };

  /// Ranks rows [begin, end); `previous` is null for a cold build.
  void RankRows(size_t begin, size_t end, const FSimSnapshot* previous,
                RankScratch* scratch);

  SharedFSimScores scores_;
  size_t cache_k_;
  // Row u's positions in rank order fill ranks_[first, last), where
  // [first, last) is the row's key range (PairKeySet::RowRange).
  std::vector<uint32_t> ranks_;
  CacheBuildStats cache_stats_;
  SnapshotMeta meta_;
};

using SnapshotPtr = std::shared_ptr<const FSimSnapshot>;

/// The publish/read point between one publisher (the refresh driver) and
/// any number of concurrent readers. Readers have two ways in:
///
///  * Pin() — for one query at a time. Each thread keeps one pin (store id,
///    version, owning reference). While the pin names this store and the
///    published version is unchanged, Pin() is one acquire-load of
///    `published_version_`, whose cache line only Publish writes; no shared
///    memory is written. Otherwise it re-pins with one Acquire().
///  * Acquire() — an owning reference, for callers that hold a snapshot
///    across many answers (RunBatch, BATCH, STATS). It is a
///    std::atomic<shared_ptr> load, which libstdc++ guards with a spin-lock
///    bit in the atomic's own word: a load spins while another load or a
///    Publish holds the bit, and every load writes that word and the
///    snapshot's refcount (released again when the reference drops), so
///    concurrent acquirers contend on shared cache lines.
///
/// Retention: a pin keeps its snapshot alive, so a thread that stops
/// querying holds at most one superseded snapshot until its next Pin() (on
/// any store) or its exit. The thread whose re-pin drops the last reference
/// destroys that snapshot.
class SnapshotStore {
 public:
  SnapshotStore();

  /// Hands out the next version number; builders stamp their SnapshotMeta
  /// with it before constructing the snapshot.
  uint64_t NextVersion() { return next_version_.fetch_add(1) + 1; }

  /// Atomically replaces the current snapshot. Serialized across
  /// publishers; snapshot versions must be fresh NextVersion() values, and
  /// a stale publish (version below the current one, possible only if two
  /// publishers race) is dropped. Returns whether the snapshot became
  /// current.
  bool Publish(SnapshotPtr snapshot);

  /// The current snapshot, or nullptr before the first publish. The
  /// reference keeps that version alive for as long as the caller holds
  /// it, even while newer versions are published over it.
  SnapshotPtr Acquire() const { return current_.load(); }

  /// The current snapshot through this thread's pin, or nullptr before the
  /// first publish. The pointer stays valid until this thread's next Pin()
  /// on any store, or its exit; do not keep it past the query at hand.
  const FSimSnapshot* Pin() const;

  /// Version of the current snapshot (0 before the first publish).
  uint64_t version() const { return published_version_.load(); }

  size_t publish_count() const { return publish_count_.load(); }

  /// Structural invariants of the publish chain: the recorded version
  /// history is strictly increasing (a regressed or duplicated version
  /// means a publish raced past the staleness gate), the newest recorded
  /// version is the published one, no published version exceeds what
  /// NextVersion handed out, and the published head is alive with refcount
  /// >= 1 (the store's own reference — a zero would mean readers can
  /// acquire a freed snapshot). Runs automatically after every Publish
  /// under FSIM_DEBUG_CHECKS. Bumps ValidatorCounters
  /// "SnapshotStore::ValidateChain".
  Status ValidateChain() const;

 private:
  // check_test.cc corrupts the version chain through this to prove the
  // validator catches a regressed publish history.
  friend struct SnapshotStoreTestAccess;

  /// ValidateChain body; the caller must hold publish_mu_.
  Status ValidateChainLocked() const;

  // Publish order within the guarded section is the chain order.
  static constexpr size_t kVersionChainCapacity = 64;

  // guards: version_chain_, and serializes publishers (current_ and the
  // version counters stay atomics so readers never take it).
  mutable std::mutex publish_mu_;
  // ordering: seq_cst store/load — Publish stores it before
  // published_version_, so a reader that sees a version sees its snapshot.
  std::atomic<SnapshotPtr> current_;
  std::atomic<uint64_t> next_version_{0};       // ordering: fetch_add ticket
  std::atomic<size_t> publish_count_{0};        // ordering: relaxed telemetry
  // The last kVersionChainCapacity published versions, oldest first — the
  // "chain" ValidateChain() audits.
  std::vector<uint64_t> version_chain_;
  // The line every Pin() reads: its own 64-byte line, written only by
  // Publish, so the lock bit of current_ and the ticket and telemetry
  // counters never invalidate it. id_ is immutable and read alongside.
  // ordering: seq_cst store after current_; Pin loads it with acquire.
  alignas(64) std::atomic<uint64_t> published_version_{0};
  // Process-unique, never reused: a store built at a destroyed store's
  // address must not match pins taken on the old one.
  const uint64_t id_;
};

}  // namespace fsim

#endif  // FSIM_SERVE_SNAPSHOT_H_
