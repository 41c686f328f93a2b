#include "core/fsim_scores.h"

#include <algorithm>

namespace fsim {

namespace {

/// Descending score, ties broken by ascending node id — the ranking order of
/// every top-k surface (FSimScores::TopK, the snapshot top-k cache).
inline bool RanksBefore(const std::pair<NodeId, double>& a,
                        const std::pair<NodeId, double>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

}  // namespace

FSimScores::FSimScores(std::vector<uint64_t> keys, std::vector<double> values,
                       FlatPairMap index, FSimStats stats)
    : keys_(std::move(keys)),
      values_(std::move(values)),
      index_(std::move(index)),
      stats_(std::move(stats)) {}

std::pair<size_t, size_t> FSimScores::RangeOf(NodeId u) const {
  const uint64_t lo = PairKey(u, 0);
  const uint64_t hi = PairKey(u, ~0U);
  auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  auto last = std::upper_bound(keys_.begin(), keys_.end(), hi);
  return {static_cast<size_t>(first - keys_.begin()),
          static_cast<size_t>(last - keys_.begin())};
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
  auto [first, last] = RangeOf(u);

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
      const std::pair<NodeId, double> entry{PairSecond(keys_[i]), values_[i]};
      if (RanksBefore(entry, (*out)[base])) {
        std::pop_heap(out->begin() + base, out->end(), heap_cmp);
        out->back() = entry;
        std::push_heap(out->begin() + base, out->end(), heap_cmp);
      }
      ++i;
    } else {
      out->emplace_back(PairSecond(keys_[i]), values_[i]);
      std::push_heap(out->begin() + base, out->end(), heap_cmp);
      ++i;
    }
  }
  std::sort_heap(out->begin() + base, out->end(), heap_cmp);
  return out->size() - base;
}

std::vector<std::pair<NodeId, double>> FSimScores::Row(NodeId u) const {
  auto [first, last] = RangeOf(u);
  std::vector<std::pair<NodeId, double>> row;
  row.reserve(last - first);
  for (size_t i = first; i < last; ++i) {
    row.emplace_back(PairSecond(keys_[i]), values_[i]);
  }
  return row;
}

}  // namespace fsim
