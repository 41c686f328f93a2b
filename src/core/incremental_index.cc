#include "core/incremental_index.h"

#include <algorithm>

#include "core/neighbor_fill.h"

namespace fsim {

namespace {

/// The span classifier Build and Restage share with the batch index. The
/// incremental engine maintains the full θ-candidate set, so there is no
/// pruned side table to tag into.
RefClassifier<DynamicGraph, DynamicGraph> Classifier(
    const NeighborIndexEnv& env, double theta) {
  return {env.g1, env.g2, env.lsim, theta, env.pair_index, nullptr};
}

}  // namespace

bool IncrementalNeighborIndex::Build(const NeighborIndexEnv& env,
                                     std::span<const uint64_t> keys,
                                     const FSimConfig& config,
                                     ThreadPool* pool) {
  enabled_ = false;
  const size_t n = keys.size();
  if (config.neighbor_index_budget_bytes == 0) return false;
  // Stay inside the untagged ref range shared with the batch index.
  if (n >= kNeighborRefPrunedTag) return false;

  theta_ = config.theta;
  pin_diagonal_ = config.pin_diagonal;
  budget_bytes_ = config.neighbor_index_budget_bytes;

  // Budget gate against the pre-filter bound Σ |N±(u)|·|N±(v)| over both
  // directions (compatibility filtering only shrinks the real footprint).
  uint64_t max_entries = 0;
  for (uint64_t key : keys) {
    const NodeId u = PairFirst(key);
    const NodeId v = PairSecond(key);
    if (pin_diagonal_ && u == v) continue;
    max_entries +=
        static_cast<uint64_t>(env.g1.OutDegree(u)) * env.g2.OutDegree(v);
    max_entries +=
        static_cast<uint64_t>(env.g1.InDegree(u)) * env.g2.InDegree(v);
  }
  const uint64_t meta_bytes = 2 * n * sizeof(SpanMeta);
  if (max_entries * sizeof(NeighborRef) + meta_bytes >
      config.neighbor_index_budget_bytes) {
    return false;
  }

  ThreadPool inline_pool(1);
  if (pool == nullptr) pool = &inline_pool;
  const auto classifier = Classifier(env, theta_);
  auto is_pinned = [&](size_t i) {
    // Pinned pairs are never evaluated and never change, so neither
    // direction span is needed (their dependents receive no pushes).
    return pin_diagonal_ && PairFirst(keys[i]) == PairSecond(keys[i]);
  };
  auto stage = [&](size_t i, int dir, auto&& emit) {
    if (is_pinned(i)) return;
    const NodeId u = PairFirst(keys[i]);
    const NodeId v = PairSecond(keys[i]);
    if (dir == kOut) {
      classifier.ClassifySpan<NeighborRef>(env.g1.OutNeighbors(u),
                                           env.g2.OutNeighbors(v), emit);
    } else {
      classifier.ClassifySpan<NeighborRef>(env.g1.InNeighbors(u),
                                           env.g2.InNeighbors(v), emit);
    }
  };
  std::vector<uint64_t> offsets;
  FillNeighborSpans<NeighborRef>(*pool, n, /*bounded=*/false, stage, &offsets,
                                 &arena_);
  // Tight spans, laid out in span order; pinned spans keep an empty slot.
  spans_.assign(2 * n, SpanMeta{});
  constexpr size_t kSpanGrain = 4096;
  pool->ParallelForChunked(n, kSpanGrain, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (is_pinned(i)) continue;
      for (size_t s = 2 * i; s < 2 * i + 2; ++s) {
        const auto size = static_cast<uint32_t>(offsets[s + 1] - offsets[s]);
        spans_[s] = SpanMeta{offsets[s], size, size};
      }
    }
  });
  freed_ = 0;
  restaged_spans_ = 0;
  enabled_ = true;
#ifdef FSIM_DEBUG_CHECKS
  const Status valid = Validate(n);
  FSIM_CHECK(valid.ok()) << valid.ToString();
#endif
  return true;
}

void IncrementalNeighborIndex::Restage(size_t pair, int dir, NodeId u,
                                       NodeId v,
                                       const NeighborIndexEnv& env) {
  if (!enabled_) return;
  if (pin_diagonal_ && u == v) return;
  ++restaged_spans_;
  stage_.clear();
  const auto classifier = Classifier(env, theta_);
  auto push = [this](const NeighborRef& e) { stage_.push_back(e); };
  if (dir == kOut) {
    classifier.ClassifySpan<NeighborRef>(env.g1.OutNeighbors(u),
                                         env.g2.OutNeighbors(v), push);
  } else {
    classifier.ClassifySpan<NeighborRef>(env.g1.InNeighbors(u),
                                         env.g2.InNeighbors(v), push);
  }
  SpanMeta& m = spans_[2 * pair + dir];
  if (stage_.size() <= m.capacity) {
    std::copy(stage_.begin(), stage_.end(), arena_.begin() + m.offset);
    m.size = static_cast<uint32_t>(stage_.size());
    return;
  }
  // Outgrown: relocate to the arena tail with growth slack, so a pair whose
  // neighborhood keeps growing amortizes its relocations.
  freed_ += m.capacity;
  m.offset = arena_.size();
  m.size = static_cast<uint32_t>(stage_.size());
  m.capacity = m.size + m.size / 2 + 4;
  arena_.insert(arena_.end(), stage_.begin(), stage_.end());
  arena_.resize(arena_.size() + (m.capacity - m.size));
  if (freed_ > arena_.size() / 2 && freed_ > 4096) Compact();
  // The budget is a ceiling, not just a build-time gate: if live growth
  // (not reclaimable slack) exceeds it, drop the index entirely.
  if (MemoryBytes() > budget_bytes_) {
    Compact();
    if (MemoryBytes() > budget_bytes_) Disable();
  }
}

void IncrementalNeighborIndex::Disable() {
  enabled_ = false;
  std::vector<SpanMeta>().swap(spans_);
  std::vector<NeighborRef>().swap(arena_);
  std::vector<NeighborRef>().swap(stage_);
  freed_ = 0;
}

Status IncrementalNeighborIndex::Validate(size_t num_pairs) const {
  ValidatorCounters::Bump("IncrementalNeighborIndex::Validate");
  if (!enabled_) return Status::OK();
  if (spans_.size() != 2 * num_pairs) {
    return Status::Internal("incremental index holds " +
                            std::to_string(spans_.size()) + " spans for " +
                            std::to_string(num_pairs) + " pairs");
  }
  uint64_t capacity_total = 0;
  std::vector<std::pair<uint64_t, uint64_t>> extents;  // [offset, offset+cap)
  extents.reserve(spans_.size());
  for (size_t s = 0; s < spans_.size(); ++s) {
    const SpanMeta& m = spans_[s];
    if (m.size > m.capacity) {
      return Status::Internal("span " + std::to_string(s) + " has size " +
                              std::to_string(m.size) + " > capacity " +
                              std::to_string(m.capacity));
    }
    if (m.offset + m.capacity > arena_.size()) {
      return Status::Internal("span " + std::to_string(s) +
                              " extends past the arena");
    }
    capacity_total += m.capacity;
    if (m.capacity > 0) extents.emplace_back(m.offset, m.offset + m.capacity);
    uint64_t prev_key = 0;
    bool first = true;
    for (uint32_t k = 0; k < m.size; ++k) {
      const NeighborRef& entry = arena_[m.offset + k];
      if (entry.ref >= num_pairs) {
        return Status::Internal("span " + std::to_string(s) + " ref " +
                                std::to_string(entry.ref) +
                                " outside the maintained pairs");
      }
      const uint64_t key =
          (static_cast<uint64_t>(entry.row) << 32) | entry.col;
      if (!first && key <= prev_key) {
        return Status::Internal("span " + std::to_string(s) +
                                " not strictly (row, col)-sorted");
      }
      prev_key = key;
      first = false;
    }
  }
  // Slack accounting: every arena slot is owned by exactly one span or
  // counted in freed_; Restage relocations must keep this exact.
  if (capacity_total + freed_ != arena_.size()) {
    return Status::Internal(
        "arena slack accounting off: Σcapacity=" +
        std::to_string(capacity_total) + " + freed=" + std::to_string(freed_) +
        " != arena=" + std::to_string(arena_.size()));
  }
  std::sort(extents.begin(), extents.end());
  for (size_t k = 1; k < extents.size(); ++k) {
    if (extents[k].first < extents[k - 1].second) {
      return Status::Internal("arena spans overlap");
    }
  }
  return Status::OK();
}

void IncrementalNeighborIndex::Compact() {
  std::vector<NeighborRef> packed;
  packed.reserve(arena_.size() - freed_);
  for (SpanMeta& m : spans_) {
    const uint64_t offset = packed.size();
    packed.insert(packed.end(), arena_.begin() + m.offset,
                  arena_.begin() + m.offset + m.size);
    m.offset = offset;
    m.capacity = m.size;
  }
  arena_ = std::move(packed);
  freed_ = 0;
}

}  // namespace fsim
