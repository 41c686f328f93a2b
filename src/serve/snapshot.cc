#include "serve/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <string>

#include "common/check.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace fsim {

namespace {

/// Ranked-row dispositions across all snapshot builds, resolved once.
struct CacheRowCounters {
  obs::Counter* carried;
  obs::Counter* repaired;
  obs::Counter* reselected;

  static const CacheRowCounters& Get() {
    static const CacheRowCounters counters = [] {
      obs::Registry& registry = obs::Registry::Default();
      constexpr char kFamily[] = "fsim_snapshot_cache_rows_total";
      constexpr char kHelp[] =
          "Rows ranked per snapshot build, by how each order was obtained";
      CacheRowCounters c;
      c.carried = registry.GetCounter(kFamily, kHelp, "kind", "carried");
      c.repaired = registry.GetCounter(kFamily, kHelp, "kind", "repaired");
      c.reselected = registry.GetCounter(kFamily, kHelp, "kind", "reselected");
      return c;
    }();
    return counters;
  }
};

/// Rank order over the positions of one row: descending score, ties by
/// position. A row's keys ascend in v, so ties by position are ties by node
/// id and this is RanksBefore on the positions' (v, score) entries.
struct RankLess {
  const double* values;
  bool operator()(uint32_t a, uint32_t b) const {
    return values[a] > values[b] || (values[a] == values[b] && a < b);
  }
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Below this many pairs a pool region costs more than a cold rank inline.
/// On row prefixes of the yeast and gp tables, a 4-thread pool lost at 932
/// pairs (0.07-0.09 ms against 0.04 ms), came within 10% at 2,387, and won
/// at every size from 3,777 pairs up, whether its workers were asleep or
/// just busy (see docs/performance.md "Ranked rows").
constexpr size_t kParallelRankMinPairs = 4096;

}  // namespace

FSimSnapshot::FSimSnapshot(SharedFSimScores scores, size_t cache_k,
                           SnapshotMeta meta, const FSimSnapshot* previous,
                           ThreadPool* pool)
    : scores_(std::move(scores)), cache_k_(cache_k), meta_(meta) {
  // meta.build_seconds arrives holding the producer's cost of obtaining
  // the frozen scores (e.g. the engine's values copy); the ranking below
  // adds its own share so the published figure is the whole snapshot cost.
  Timer rank_timer;
  const PairKeySet& set = *scores_->key_set();
  const bool carry = previous != nullptr &&
                     previous->scores_->key_set() == scores_->key_set();
  if (!carry) previous = nullptr;
  ranks_.resize(set.keys.size());
  const size_t rows = set.NumRows();
  // Only a cold build sorts every row; a carried one is O(rows + changes),
  // which a pool region's wake-up would cost more than it saves.
  if (previous == nullptr && pool != nullptr && pool->num_threads() > 1 &&
      set.keys.size() >= kParallelRankMinPairs) {
    std::vector<RankScratch> scratch(static_cast<size_t>(pool->num_threads()));
    const size_t grain = std::max<size_t>(1, rows / (scratch.size() * 8));
    pool->ParallelForChunked(rows, grain,
                             [&](int worker, size_t begin, size_t end) {
                               RankRows(begin, end, previous,
                                        &scratch[static_cast<size_t>(worker)]);
                             });
    for (const RankScratch& part : scratch) {
      cache_stats_.carried += part.stats.carried;
      cache_stats_.repaired += part.stats.repaired;
      cache_stats_.reselected += part.stats.reselected;
    }
  } else {
    RankScratch scratch;
    RankRows(0, rows, previous, &scratch);
    cache_stats_ = scratch.stats;
  }
  meta_.build_seconds += rank_timer.Seconds();
  const CacheRowCounters& counters = CacheRowCounters::Get();
  counters.carried->Inc(cache_stats_.carried);
  counters.repaired->Inc(cache_stats_.repaired);
  counters.reselected->Inc(cache_stats_.reselected);
#ifdef FSIM_DEBUG_CHECKS
  if (carry) {
    const Status valid = ValidateCache();
    FSIM_CHECK(valid.ok()) << valid.ToString();
  }
#endif
}

void FSimSnapshot::RankRows(size_t begin, size_t end,
                            const FSimSnapshot* previous,
                            RankScratch* scratch) {
  const PairKeySet& set = *scores_->key_set();
  const double* values = scores_->values().data();
  const double* before =
      previous != nullptr ? previous->scores_->values().data() : nullptr;
  const RankLess less{values};
  for (size_t u = begin; u < end; ++u) {
    const auto [first, last] = set.RowRange(static_cast<NodeId>(u));
    if (first == last) continue;
    uint32_t* out = ranks_.data() + first;
    if (before == nullptr) {
      std::iota(out, out + (last - first), static_cast<uint32_t>(first));
      std::sort(out, out + (last - first), less);
      ++scratch->stats.reselected;
      continue;
    }
    const uint32_t* order = previous->ranks_.data() + first;
    if (std::memcmp(values + first, before + first,
                    (last - first) * sizeof(double)) == 0) {
      std::copy(order, order + (last - first), out);
      ++scratch->stats.carried;
      continue;
    }
    // Unchanged positions keep their relative order, so only the changed
    // ones need sorting before the two runs merge.
    std::vector<uint32_t>& kept = scratch->kept;
    std::vector<uint32_t>& changed = scratch->changed;
    kept.clear();
    changed.clear();
    for (const uint32_t* p = order; p != order + (last - first); ++p) {
      if (SameBits(values[*p], before[*p])) kept.push_back(*p);
    }
    for (size_t i = first; i < last; ++i) {
      if (!SameBits(values[i], before[i])) {
        changed.push_back(static_cast<uint32_t>(i));
      }
    }
    std::sort(changed.begin(), changed.end(), less);
    std::merge(kept.begin(), kept.end(), changed.begin(), changed.end(), out,
               less);
    ++scratch->stats.repaired;
  }
}

Status FSimSnapshot::ValidateCache() const {
  ValidatorCounters::Bump("FSimSnapshot::ValidateCache");
  const PairKeySet& set = *scores_->key_set();
  const std::vector<uint64_t>& keys = scores_->keys();
  const std::vector<double>& values = scores_->values();
  if (ranks_.size() != keys.size()) {
    return Status::Internal("rank order holds " +
                            std::to_string(ranks_.size()) + " positions for " +
                            std::to_string(keys.size()) + " pairs");
  }
  std::vector<std::pair<NodeId, double>> expect;
  for (size_t u = 0; u < set.NumRows(); ++u) {
    const NodeId row = static_cast<NodeId>(u);
    const auto [first, last] = set.RowRange(row);
    expect.clear();
    scores_->TopKInto(row, last - first, &expect);
    const std::span<const uint32_t> ranked = RankedRow(row);
    for (size_t i = 0; i < ranked.size(); ++i) {
      const uint32_t p = ranked[i];
      if (p < first || p >= last || PairSecond(keys[p]) != expect[i].first ||
          !SameBits(values[p], expect[i].second)) {
        return Status::Internal("rank order of row " + std::to_string(u) +
                                " differs from a cold sort at rank " +
                                std::to_string(i));
      }
    }
  }
  return Status::OK();
}

std::vector<std::pair<NodeId, double>> FSimSnapshot::TopK(NodeId u,
                                                          size_t k) const {
  const std::span<const uint32_t> ranked = RankedRow(u);
  const size_t n = std::min(k, ranked.size());
  const uint64_t* keys = scores_->keys().data();
  const double* values = scores_->values().data();
  std::vector<std::pair<NodeId, double>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(PairSecond(keys[ranked[i]]), values[ranked[i]]);
  }
  return out;
}

size_t FSimSnapshot::CountAtLeast(NodeId u, double tau) const {
  const std::span<const uint32_t> ranked = RankedRow(u);
  const double* values = scores_->values().data();
  return static_cast<size_t>(
      std::partition_point(ranked.begin(), ranked.end(),
                           [values, tau](uint32_t p) {
                             return values[p] >= tau;
                           }) -
      ranked.begin());
}

namespace {

// Store ids start at 1, so the empty pin (id 0) matches no store.
// ordering: relaxed fetch_add — ids need only be unique.
std::atomic<uint64_t> next_store_id{0};

// One pin per thread, shared by every store the thread queries: a query on
// another store, or after a publish, replaces it.
struct ThreadPin {
  uint64_t store_id = 0;
  uint64_t version = 0;
  SnapshotPtr snapshot;
};
thread_local ThreadPin thread_pin;

}  // namespace

SnapshotStore::SnapshotStore()
    : id_(next_store_id.fetch_add(1, std::memory_order_relaxed) + 1) {}

const FSimSnapshot* SnapshotStore::Pin() const {
  ThreadPin& pin = thread_pin;
  const uint64_t published =
      published_version_.load(std::memory_order_acquire);
  if (pin.store_id == id_ && pin.version == published) {
    return pin.snapshot.get();
  }
  // Publish stores current_ before published_version_, so this load sees
  // `published` or a newer version, never an older one.
  pin.snapshot = current_.load();
  pin.store_id = id_;
  pin.version = pin.snapshot != nullptr ? pin.snapshot->meta().version : 0;
  return pin.snapshot.get();
}

bool SnapshotStore::Publish(SnapshotPtr snapshot) {
  FSIM_CHECK(snapshot != nullptr) << "Publish of a null snapshot";
  std::lock_guard<std::mutex> lock(publish_mu_);
  const uint64_t version = snapshot->meta().version;
  FSIM_CHECK(version <= next_version_.load())
      << "snapshot version was not obtained from NextVersion";
  if (version <= published_version_.load()) return false;  // stale publish
  current_.store(std::move(snapshot));
  published_version_.store(version);
  publish_count_.fetch_add(1);
  if (version_chain_.size() >= kVersionChainCapacity) {
    version_chain_.erase(version_chain_.begin());
  }
  version_chain_.push_back(version);
#ifdef FSIM_DEBUG_CHECKS
  {
    const Status valid = ValidateChainLocked();
    FSIM_CHECK(valid.ok()) << valid.ToString();
  }
#endif
  return true;
}

Status SnapshotStore::ValidateChain() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return ValidateChainLocked();
}

Status SnapshotStore::ValidateChainLocked() const {
  ValidatorCounters::Bump("SnapshotStore::ValidateChain");
  for (size_t k = 1; k < version_chain_.size(); ++k) {
    if (version_chain_[k] <= version_chain_[k - 1]) {
      return Status::Internal(
          "snapshot chain regresses: version " +
          std::to_string(version_chain_[k]) + " published after " +
          std::to_string(version_chain_[k - 1]));
    }
  }
  const uint64_t published = published_version_.load();
  const uint64_t next = next_version_.load();
  if (published > next) {
    return Status::Internal("published version " + std::to_string(published) +
                            " exceeds the ticket counter " +
                            std::to_string(next));
  }
  if (!version_chain_.empty() && version_chain_.back() != published) {
    return Status::Internal(
        "published version " + std::to_string(published) +
        " is not the newest chain entry " +
        std::to_string(version_chain_.back()));
  }
  const SnapshotPtr head = current_.load();
  if (publish_count_.load() > 0) {
    // use_count counts the store's reference plus our local copy; below 2
    // the head is either gone or about to be freed under a reader.
    if (head == nullptr || head.use_count() < 2) {
      return Status::Internal("published head is not alive (refcount < 1)");
    }
    if (head->meta().version != published) {
      return Status::Internal(
          "published head carries version " +
          std::to_string(head->meta().version) + ", store says " +
          std::to_string(published));
    }
  } else if (head != nullptr) {
    return Status::Internal("snapshot present before any publish");
  }
  return Status::OK();
}

}  // namespace fsim
