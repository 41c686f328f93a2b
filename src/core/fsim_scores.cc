#include "core/fsim_scores.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace fsim {

namespace {

/// The key set of default-constructed and moved-from scores.
const SharedPairKeySet& EmptyKeySet() {
  static const SharedPairKeySet empty = PairKeySet::Make({}, FlatPairMap());
  return empty;
}

}  // namespace

std::shared_ptr<const PairKeySet> PairKeySet::Make(std::vector<uint64_t> keys,
                                                   FlatPairMap index,
                                                   size_t num_rows) {
  auto set = std::make_shared<PairKeySet>();
  if (!keys.empty()) {
    num_rows = std::max<size_t>(num_rows, PairFirst(keys.back()) + 1);
  }
  set->row_offsets.assign(num_rows + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    FSIM_DCHECK(i == 0 || keys[i - 1] < keys[i])
        << "pair keys are not sorted u-major";
    ++set->row_offsets[PairFirst(keys[i]) + 1];
  }
  for (size_t u = 0; u < num_rows; ++u) {
    set->row_offsets[u + 1] += set->row_offsets[u];
  }
  set->keys = std::move(keys);
  set->index = std::move(index);
  return set;
}

FSimScores::FSimScores() : key_set_(EmptyKeySet()) {}

FSimScores::FSimScores(std::vector<uint64_t> keys, std::vector<double> values,
                       FlatPairMap index, FSimStats stats)
    : key_set_(PairKeySet::Make(std::move(keys), std::move(index))),
      values_(std::move(values)),
      stats_(std::move(stats)) {}

FSimScores::FSimScores(SharedPairKeySet key_set, std::vector<double> values,
                       FSimStats stats)
    : key_set_(std::move(key_set)),
      values_(std::move(values)),
      stats_(std::move(stats)) {
  FSIM_DCHECK(values_.size() == key_set_->keys.size());
}

FSimScores::FSimScores(FSimScores&& other) noexcept
    : key_set_(std::exchange(other.key_set_, EmptyKeySet())),
      values_(std::move(other.values_)),
      stats_(std::move(other.stats_)) {
  other.values_.clear();
}

FSimScores& FSimScores::operator=(FSimScores&& other) noexcept {
  if (this != &other) {
    key_set_ = std::exchange(other.key_set_, EmptyKeySet());
    values_ = std::move(other.values_);
    other.values_.clear();
    stats_ = std::move(other.stats_);
  }
  return *this;
}

std::vector<std::pair<NodeId, double>> FSimScores::TopK(NodeId u,
                                                        size_t k) const {
  std::vector<std::pair<NodeId, double>> out;
  TopKInto(u, k, &out);
  return out;
}

size_t FSimScores::TopKInto(
    NodeId u, size_t k, std::vector<std::pair<NodeId, double>>* out) const {
  const size_t base = out->size();
  if (k == 0) return 0;
  auto [first, last] = key_set_->RowRange(u);
  const std::vector<uint64_t>& keys = key_set_->keys;

  // Bounded min-heap over out's tail: the heap top (out[base]) is the
  // currently weakest kept entry under the ranking order, so a candidate
  // enters iff it ranks before the top. The heap comparator is the reverse
  // of RanksBefore (make_heap builds a max-heap, we need the weakest on top).
  auto heap_cmp = [](const std::pair<NodeId, double>& a,
                     const std::pair<NodeId, double>& b) {
    return RanksBefore(a, b);
  };
  size_t i = first;
  while (i < last) {
    if (out->size() - base >= k) {
      // Hot path: once the heap is warm, skip every candidate scoring below
      // the heap top (loop-invariant across the skipped run, since nothing
      // enters).
      const double top = (*out)[base].second;
      while (i < last && values_[i] < top) ++i;
      if (i >= last) break;
      const std::pair<NodeId, double> entry{PairSecond(keys[i]), values_[i]};
      if (RanksBefore(entry, (*out)[base])) {
        std::pop_heap(out->begin() + base, out->end(), heap_cmp);
        out->back() = entry;
        std::push_heap(out->begin() + base, out->end(), heap_cmp);
      }
      ++i;
    } else {
      out->emplace_back(PairSecond(keys[i]), values_[i]);
      std::push_heap(out->begin() + base, out->end(), heap_cmp);
      ++i;
    }
  }
  std::sort_heap(out->begin() + base, out->end(), heap_cmp);
  return out->size() - base;
}

std::vector<std::pair<NodeId, double>> FSimScores::Row(NodeId u) const {
  auto [first, last] = key_set_->RowRange(u);
  const std::vector<uint64_t>& keys = key_set_->keys;
  std::vector<std::pair<NodeId, double>> row;
  row.reserve(last - first);
  for (size_t i = first; i < last; ++i) {
    row.emplace_back(PairSecond(keys[i]), values_[i]);
  }
  return row;
}

}  // namespace fsim
