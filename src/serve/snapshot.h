// Versioned, immutable score snapshots — the unit of publication of the
// serving layer (serve/service.h). A snapshot freezes one FSimScores table
// (shared, never copied after freeze), precomputes a per-node top-k cache so
// the hot TopK query never rescans a row, and carries version/provenance
// metadata. SnapshotStore is the publish/read rendezvous: publishing swaps
// the current snapshot under the publisher mutex; a single query reads it
// through a per-thread pin that costs one shared load and no shared write
// while the version is unchanged, and an owning Acquire() hands out a
// reference for batches. A snapshot stays alive until its last reference —
// the store's, a reader's, or a thread's pin — drops it.
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
  /// copy/load cost (pre-filled by the caller) plus the top-k cache build
  /// (added by the FSimSnapshot constructor).
  double build_seconds = 0.0;
};

/// How the rows of one snapshot's top-k cache were obtained (rows with no
/// pairs are not counted).
struct CacheBuildStats {
  size_t carried = 0;     // values bitwise unchanged: previous span copied
  size_t repaired = 0;    // changed; previous entries re-read and re-sorted
  size_t reselected = 0;  // selected from the row with TopKInto
};

/// An immutable, query-ready view of one score version: frozen shared
/// scores plus a per-node top-k cache (the first `cache_k` ranked entries
/// of every row).
class FSimSnapshot {
 public:
  /// Builds the top-k cache over `scores` in one walk over the rows. With
  /// a `previous` snapshot over the same key set (the same
  /// FSimScores::key_set() pointer) and the same cache_k, its cache is
  /// carried forward: a row whose values are bitwise unchanged copies
  /// previous's span, and a changed row is repaired from it when that is
  /// provably exact (see RepairRow). Every other row — all of them without
  /// a usable `previous`, a cold build — is selected with
  /// FSimScores::TopKInto, O(row log k). Either way the cache equals a cold
  /// build's exactly.
  FSimSnapshot(SharedFSimScores scores, size_t cache_k, SnapshotMeta meta,
               const FSimSnapshot* previous = nullptr);

  /// FSimχ(u, v); 0 for pairs outside the maintained candidate set.
  double PairScore(NodeId u, NodeId v) const { return scores_->Score(u, v); }

  bool Contains(NodeId u, NodeId v) const { return scores_->Contains(u, v); }

  /// The cached ranking prefix of row u: min(cache_k, |row u|) entries,
  /// descending score (ties by node id). Empty for nodes without
  /// maintained pairs.
  std::span<const std::pair<NodeId, double>> CachedTopK(NodeId u) const {
    if (static_cast<size_t>(u) + 1 >= cache_offsets_.size()) return {};
    return {cache_entries_.data() + cache_offsets_[u],
            cache_entries_.data() + cache_offsets_[u + 1]};
  }

  /// The k best (v, score) for u. Served from the cache when k <= cache_k
  /// (no row scan); falls back to FSimScores::TopK selection otherwise.
  std::vector<std::pair<NodeId, double>> TopK(NodeId u, size_t k) const;

  /// All (v, score) of row u with score >= tau, descending (ties by id).
  std::vector<std::pair<NodeId, double>> ThresholdNeighbors(NodeId u,
                                                            double tau) const;

  const FSimScores& scores() const { return *scores_; }
  SharedFSimScores shared_scores() const { return scores_; }
  const SnapshotMeta& meta() const { return meta_; }
  size_t cache_k() const { return cache_k_; }

  /// How this snapshot's cache rows were obtained.
  const CacheBuildStats& cache_build_stats() const { return cache_stats_; }

  /// Heap footprint of the top-k cache.
  size_t CacheBytes() const {
    return cache_entries_.capacity() * sizeof(cache_entries_[0]) +
           cache_offsets_.capacity() * sizeof(uint32_t) +
           floors_.capacity() * sizeof(floors_[0]);
  }

  /// Compares every row's cached entries with a cold TopKInto selection of
  /// the same row, and checks that each stored floor ranks at or before the
  /// best uncached entry. Runs automatically after every carried-forward
  /// build under FSIM_DEBUG_CHECKS. Bumps ValidatorCounters
  /// "FSimSnapshot::ValidateCache".
  Status ValidateCache() const;

 private:
  // check_test.cc corrupts the cache and floors through this to prove
  // ValidateCache catches them.
  friend struct FSimSnapshotTestAccess;

  using Entry = std::pair<NodeId, double>;

  /// The cache build walk; `previous` is null for a cold build.
  void BuildCache(const FSimSnapshot* previous);

  /// Repairs changed row u (positions [first, last)) from previous's
  /// cached entries C: re-reads their new values, and appends them sorted
  /// iff they are still the row's exact top min(k, |row|). That holds when
  /// the weakest re-read entry m ranks before previous's floor of u (so
  /// before every unchanged uncached entry) and before every changed
  /// uncached entry. Returns false, appending nothing, otherwise.
  /// `scratch` is reused across rows.
  bool RepairRow(NodeId u, size_t first, size_t last,
                 const FSimSnapshot& previous, std::vector<Entry>* scratch);

  /// Selects row u (`row_size` pairs) with TopKInto, one entry deeper than
  /// the cache so the exact floor comes for free.
  void SelectRow(NodeId u, size_t row_size);

  SharedFSimScores scores_;
  size_t cache_k_;
  // CSR over u: row u's cached entries live in
  // cache_entries_[cache_offsets_[u] .. cache_offsets_[u + 1]).
  std::vector<uint32_t> cache_offsets_;
  std::vector<Entry> cache_entries_;
  // Per row longer than cache_k_: an entry ranking at or before every
  // uncached entry of the row — exactly the best uncached entry when the
  // row was last selected, a conservative bound after repairs. Unused for
  // shorter rows (the cache holds the whole row).
  std::vector<Entry> floors_;
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
