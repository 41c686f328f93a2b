#include "serve/snapshot.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace fsim {

namespace {

/// Cache-row dispositions across all snapshot builds, resolved once.
struct CacheRowCounters {
  obs::Counter* carried;
  obs::Counter* repaired;
  obs::Counter* reselected;

  static const CacheRowCounters& Get() {
    static const CacheRowCounters counters = [] {
      obs::Registry& registry = obs::Registry::Default();
      constexpr char kFamily[] = "fsim_snapshot_cache_rows_total";
      constexpr char kHelp[] =
          "Top-k cache rows per snapshot build, by how each was obtained";
      CacheRowCounters c;
      c.carried = registry.GetCounter(kFamily, kHelp, "kind", "carried");
      c.repaired = registry.GetCounter(kFamily, kHelp, "kind", "repaired");
      c.reselected = registry.GetCounter(kFamily, kHelp, "kind", "reselected");
      return c;
    }();
    return counters;
  }
};

}  // namespace

FSimSnapshot::FSimSnapshot(SharedFSimScores scores, size_t cache_k,
                           SnapshotMeta meta, const FSimSnapshot* previous)
    : scores_(std::move(scores)), cache_k_(cache_k), meta_(meta) {
  // meta.build_seconds arrives holding the producer's cost of obtaining
  // the frozen scores (e.g. the engine's values copy); the cache
  // build below adds its own share so the published figure is the whole
  // snapshot cost.
  Timer cache_timer;
  const bool carry = previous != nullptr &&
                     previous->scores_->key_set() == scores_->key_set() &&
                     previous->cache_k_ == cache_k_;
  BuildCache(carry ? previous : nullptr);
  meta_.build_seconds += cache_timer.Seconds();
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

void FSimSnapshot::BuildCache(const FSimSnapshot* previous) {
  const PairKeySet& set = *scores_->key_set();
  if (set.keys.empty() || cache_k_ == 0) return;
  const size_t rows = set.NumRows();
  const double* values = scores_->values().data();
  const double* before =
      previous != nullptr ? previous->scores_->values().data() : nullptr;
  cache_offsets_.assign(rows + 1, 0);
  floors_.resize(rows);
  cache_entries_.reserve(std::min(set.keys.size(), rows * cache_k_));
  std::vector<Entry> scratch;
  for (size_t u = 0; u < rows; ++u) {
    cache_offsets_[u] = static_cast<uint32_t>(cache_entries_.size());
    const auto [first, last] = set.RowRange(static_cast<NodeId>(u));
    if (first == last) continue;
    const NodeId row = static_cast<NodeId>(u);
    if (before != nullptr && std::memcmp(values + first, before + first,
                                         (last - first) * sizeof(double)) == 0) {
      const auto span = previous->CachedTopK(row);
      cache_entries_.insert(cache_entries_.end(), span.begin(), span.end());
      floors_[u] = previous->floors_[u];
      ++cache_stats_.carried;
    } else if (before != nullptr &&
               RepairRow(row, first, last, *previous, &scratch)) {
      ++cache_stats_.repaired;
    } else {
      SelectRow(row, last - first);
      ++cache_stats_.reselected;
    }
  }
  cache_offsets_[rows] = static_cast<uint32_t>(cache_entries_.size());
}

bool FSimSnapshot::RepairRow(NodeId u, size_t first, size_t last,
                             const FSimSnapshot& previous,
                             std::vector<Entry>* scratch) {
  const std::vector<uint64_t>& keys = scores_->keys();
  const double* values = scores_->values().data();
  const double* before = previous.scores_->values().data();
  const auto cached = previous.CachedTopK(u);
  // The cached entries in ascending v, merged against the row (whose keys
  // ascend in v): a match re-reads the entry's new value, anything else is
  // uncached, and matters only if it changed.
  std::vector<Entry>& fresh = *scratch;
  fresh.assign(cached.begin(), cached.end());
  std::sort(fresh.begin(), fresh.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  size_t next = 0;
  bool any_changed = false;
  Entry best_changed;
  for (size_t i = first; i < last; ++i) {
    const NodeId v = PairSecond(keys[i]);
    if (next < fresh.size() && fresh[next].first == v) {
      fresh[next++].second = values[i];
    } else if (std::memcmp(values + i, before + i, sizeof(double)) != 0) {
      const Entry entry{v, values[i]};
      if (!any_changed || RanksBefore(entry, best_changed)) {
        best_changed = entry;
        any_changed = true;
      }
    }
  }
  const bool row_fits = last - first <= cache_k_;
  if (!row_fits) {
    const Entry weakest = *std::max_element(fresh.begin(), fresh.end(),
                                            RanksBefore);
    const Entry& floor = previous.floors_[u];
    if (!RanksBefore(weakest, floor)) return false;
    if (any_changed && !RanksBefore(weakest, best_changed)) return false;
    // Unchanged uncached entries still rank at or after the old floor,
    // changed ones at or after best_changed.
    floors_[u] =
        any_changed && RanksBefore(best_changed, floor) ? best_changed : floor;
  }
  std::sort(fresh.begin(), fresh.end(), RanksBefore);
  cache_entries_.insert(cache_entries_.end(), fresh.begin(), fresh.end());
  return true;
}

void FSimSnapshot::SelectRow(NodeId u, size_t row_size) {
  if (row_size <= cache_k_) {
    scores_->TopKInto(u, row_size, &cache_entries_);
    return;
  }
  scores_->TopKInto(u, cache_k_ + 1, &cache_entries_);
  floors_[u] = cache_entries_.back();
  cache_entries_.pop_back();
}

Status FSimSnapshot::ValidateCache() const {
  ValidatorCounters::Bump("FSimSnapshot::ValidateCache");
  const PairKeySet& set = *scores_->key_set();
  std::vector<Entry> expect;
  for (size_t u = 0; u < set.NumRows(); ++u) {
    const NodeId row = static_cast<NodeId>(u);
    const auto [first, last] = set.RowRange(row);
    const size_t row_size = last - first;
    const size_t depth = std::min(row_size, cache_k_);
    expect.clear();
    scores_->TopKInto(row, row_size > cache_k_ ? cache_k_ + 1 : row_size,
                      &expect);
    const auto cached = CachedTopK(row);
    if (cached.size() != depth ||
        !std::equal(cached.begin(), cached.end(), expect.begin())) {
      return Status::Internal("top-k cache row " + std::to_string(u) +
                              " differs from a cold selection");
    }
    if (cache_k_ > 0 && row_size > cache_k_ &&
        RanksBefore(expect[cache_k_], floors_[u])) {
      return Status::Internal("top-k cache row " + std::to_string(u) +
                              ": floor ranks after the best uncached entry");
    }
  }
  return Status::OK();
}

std::vector<std::pair<NodeId, double>> FSimSnapshot::TopK(NodeId u,
                                                          size_t k) const {
  auto cached = CachedTopK(u);
  if (k <= cache_k_ || cached.size() < cache_k_) {
    // The cache prefix answers exactly: either k fits in it, or the row is
    // shorter than the cache depth (so the cache holds the whole row).
    auto end = cached.begin() + std::min(k, cached.size());
    return {cached.begin(), end};
  }
  return scores_->TopK(u, k);
}

std::vector<std::pair<NodeId, double>> FSimSnapshot::ThresholdNeighbors(
    NodeId u, double tau) const {
  // If the cache holds the whole row, or its weakest cached entry already
  // falls below tau, the matches are a prefix of the cache — no row scan.
  auto cached = CachedTopK(u);
  if (cached.size() < cache_k_ ||
      (!cached.empty() && cached.back().second < tau)) {
    auto end = std::partition_point(
        cached.begin(), cached.end(),
        [tau](const std::pair<NodeId, double>& e) { return e.second >= tau; });
    return {cached.begin(), end};
  }
  std::vector<std::pair<NodeId, double>> out = scores_->Row(u);
  out.erase(std::remove_if(out.begin(), out.end(),
                           [tau](const std::pair<NodeId, double>& e) {
                             return e.second < tau;
                           }),
            out.end());
  std::sort(out.begin(), out.end(), RanksBefore);
  return out;
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
