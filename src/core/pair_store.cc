#include "core/pair_store.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/init_value.h"
#include "core/neighbor_fill.h"
#include "core/operators.h"

namespace fsim {

namespace {

// Pair chunk of the pooled per-pair passes (Eq. 6 bound, FSim^0 init); rows
// are filled in chunks of kRowGrain.
constexpr size_t kPairGrain = 1024;
constexpr size_t kRowGrain = 64;

}  // namespace

Result<PairStore> PairStore::Build(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config,
                                   const LabelSimilarityCache& lsim,
                                   bool build_neighbor_index,
                                   ThreadPool* pool) {
  ThreadPool inline_pool(1);
  if (pool == nullptr) pool = &inline_pool;
  PairStore store;
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();

  // --- Stage 1: θ-constrained candidate enumeration (Remark 2). ---
  // Row u is the ascending list of g2 nodes label-compatible with
  // label(u), built once per label of g1 (every g2 node when θ <= 0). Rows
  // are filled in parallel from their prefix sum, so the keys come out
  // already sorted u-major.
  std::vector<std::vector<NodeId>> row_nodes;
  std::vector<uint32_t> row_of(n1, 0);  // u -> its row_nodes entry
  if (config.theta <= 0.0) {
    row_nodes.emplace_back(n2);
    for (NodeId v = 0; v < n2; ++v) row_nodes[0][v] = v;
  } else {
    const size_t dict_size = g1.dict()->size();
    std::vector<std::vector<NodeId>> groups2(dict_size);
    for (NodeId v = 0; v < n2; ++v) groups2[g2.Label(v)].push_back(v);
    constexpr uint32_t kNoRow = ~0U;
    std::vector<uint32_t> label_row(dict_size, kNoRow);
    for (NodeId u = 0; u < n1; ++u) {
      const LabelId a = g1.Label(u);
      if (label_row[a] == kNoRow) {
        label_row[a] = static_cast<uint32_t>(row_nodes.size());
        std::vector<NodeId>& row = row_nodes.emplace_back();
        size_t merged = 0;
        for (LabelId b = 0; b < dict_size; ++b) {
          if (groups2[b].empty() || !lsim.Compatible(a, b, config.theta)) {
            continue;
          }
          row.insert(row.end(), groups2[b].begin(), groups2[b].end());
          ++merged;
        }
        if (merged > 1) std::sort(row.begin(), row.end());
      }
      row_of[u] = label_row[a];
    }
  }
  std::vector<uint64_t> row_offsets(n1 + 1, 0);
  for (NodeId u = 0; u < n1; ++u) {
    row_offsets[u + 1] = row_offsets[u] + row_nodes[row_of[u]].size();
  }
  const uint64_t total = row_offsets[n1];
  if (total > config.pair_limit) {
    return Status::InvalidArgument(StrFormat(
        config.theta <= 0.0
            ? "candidate pairs %llu exceed pair_limit %llu (theta=0 "
              "enumerates |V1|x|V2|)"
            : "candidate pairs %llu exceed pair_limit %llu",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(config.pair_limit)));
  }
  store.keys_.resize(total);
  pool->ParallelForChunked(n1, kRowGrain, [&](int, size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      uint64_t* out = store.keys_.data() + row_offsets[u];
      for (NodeId v : row_nodes[row_of[u]]) {
        *out++ = PairKey(static_cast<NodeId>(u), v);
      }
    }
  });
  store.info_.theta_candidates = store.keys_.size();

  // --- Stage 2: upper-bound pruning (Eq. 6). ---
  // The bounds are computed in pooled chunks; the partition into kept and
  // pruned pairs stays in key order.
  if (config.upper_bound) {
    const OperatorConfig op = config.operators();
    const double label_weight = 1.0 - config.w_out - config.w_in;
    auto compat = [&](NodeId x, NodeId y) {
      return lsim.Compatible(g1.Label(x), g2.Label(y), config.theta);
    };
    const size_t n = store.keys_.size();
    std::vector<float> bounds(n);
    std::vector<uint8_t> keep(n);
    pool->ParallelForChunked(n, kPairGrain, [&](int, size_t begin,
                                                size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const NodeId u = PairFirst(store.keys_[i]);
        const NodeId v = PairSecond(store.keys_[i]);
        const double bound =
            config.w_out * DirectionUpperBound(op, g1.OutNeighbors(u),
                                               g2.OutNeighbors(v), compat) +
            config.w_in * DirectionUpperBound(op, g1.InNeighbors(u),
                                              g2.InNeighbors(v), compat) +
            label_weight *
                LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
        bounds[i] = static_cast<float>(bound);
        keep[i] = bound > config.beta || (config.pin_diagonal && u == v);
      }
    });
    const bool track_pruned = config.alpha > 0.0;
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) {
        store.keys_[kept++] = store.keys_[i];
      } else if (track_pruned) {
        store.pruned_index_.Insert(
            store.keys_[i], static_cast<uint32_t>(store.pruned_ub_.size()));
        store.pruned_ub_.push_back(bounds[i]);
      }
    }
    store.info_.pruned = n - kept;
    store.keys_.resize(kept);
  }
  store.info_.kept = store.keys_.size();

  // --- Stage 3: index + initialization (§3.3). ---
  const size_t n = store.keys_.size();
  store.index_ = FlatPairMap(n);
  for (size_t i = 0; i < n; ++i) {
    store.index_.Insert(store.keys_[i], static_cast<uint32_t>(i));
  }
  store.prev_.resize(n);
  store.curr_.resize(n);
  pool->ParallelForChunked(n, kPairGrain, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      store.prev_[i] = InitValue(config, lsim, g1, g2,
                                 PairFirst(store.keys_[i]),
                                 PairSecond(store.keys_[i]));
    }
  });

  // --- Stage 4: pair-graph CSR neighbor index (budget-gated). ---
  if (build_neighbor_index && config.neighbor_index_budget_bytes > 0) {
    store.BuildNeighborIndex(g1, g2, config, lsim, *pool);
#ifdef FSIM_DEBUG_CHECKS
    const Status valid = store.ValidateNeighborIndex();
    FSIM_CHECK(valid.ok()) << valid.ToString();
#endif
  }
  return store;
}

Status PairStore::ValidateNeighborIndex() const {
  ValidatorCounters::Bump("PairStore::ValidateNeighborIndex");
  if (!has_neighbor_index_) return Status::OK();
  const size_t n = keys_.size();
  if (nbr_offsets_.size() != 2 * n + 1) {
    return Status::Internal(StrFormat(
        "neighbor index has %zu offsets for %zu pairs (want %zu)",
        nbr_offsets_.size(), n, 2 * n + 1));
  }
  if (nbr_offsets_.front() != 0) {
    return Status::Internal("neighbor index offsets do not start at 0");
  }
  // Exactly one entry layout may be populated; the offsets must account
  // for exactly its arena (the batch build is tight — any slack means a
  // torn or double-written span).
  const size_t arena_size =
      packed_refs_ ? nbr_refs_packed_.size() : nbr_refs_.size();
  const size_t other_size =
      packed_refs_ ? nbr_refs_.size() : nbr_refs_packed_.size();
  if (other_size != 0) {
    return Status::Internal("both neighbor-ref layouts are populated");
  }
  if (nbr_offsets_.back() != arena_size) {
    return Status::Internal(StrFormat(
        "neighbor index slack: offsets end at %llu but the arena holds %zu "
        "entries",
        static_cast<unsigned long long>(nbr_offsets_.back()), arena_size));
  }
  for (size_t k = 1; k < nbr_offsets_.size(); ++k) {
    if (nbr_offsets_[k] < nbr_offsets_[k - 1]) {
      return Status::Internal(
          StrFormat("neighbor index offsets regress at span %zu", k));
    }
  }
  // Per-entry checks, shared between the two layouts.
  auto check_span = [&](auto refs, size_t span) -> Status {
    uint64_t prev_key = 0;
    bool first = true;
    for (const auto& entry : refs) {
      if (IsPrunedRef(entry.ref)) {
        const uint32_t p = entry.ref & ~kNeighborRefPrunedTag;
        if (p >= pruned_ub_.size()) {
          return Status::Internal(StrFormat(
              "span %zu: tagged ref %u outside the pruned table (%zu bounds)",
              span, p, pruned_ub_.size()));
        }
      } else if (entry.ref >= n) {
        return Status::Internal(StrFormat(
            "span %zu: ref %u outside the maintained pairs (%zu)", span,
            entry.ref, n));
      }
      const uint64_t key = (static_cast<uint64_t>(entry.row) << 32) |
                           static_cast<uint64_t>(entry.col);
      if (!first && key <= prev_key) {
        return Status::Internal(StrFormat(
            "span %zu: entries not strictly (row, col)-sorted", span));
      }
      prev_key = key;
      first = false;
    }
    return Status::OK();
  };
  for (size_t i = 0; i < n; ++i) {
    for (int dir = 0; dir < 2; ++dir) {
      const size_t span = 2 * i + static_cast<size_t>(dir);
      Status st = packed_refs_
                      ? check_span(dir == 0 ? OutRefsPacked(i) : InRefsPacked(i),
                                   span)
                      : check_span(dir == 0 ? OutRefs(i) : InRefs(i), span);
      if (!st.ok()) return st;
    }
  }
  // The live list: strictly ascending, and exactly the pairs whose
  // evaluation reads a maintained score.
  size_t next = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool listed = next < live_pairs_.size() && live_pairs_[next] == i;
    if (listed != ReadsMaintainedScore(i)) {
      return Status::Internal(StrFormat(
          listed ? "live list holds pair %zu, which reads no maintained score"
                 : "live list omits pair %zu, which reads a maintained score",
          i));
    }
    next += listed;
  }
  if (next != live_pairs_.size()) {
    return Status::Internal(StrFormat(
        "live list is not strictly ascending within the %zu pairs "
        "(%zu of %zu entries matched)",
        n, next, live_pairs_.size()));
  }
  return Status::OK();
}

void PairStore::BuildNeighborIndex(const Graph& g1, const Graph& g2,
                                   const FSimConfig& config,
                                   const LabelSimilarityCache& lsim,
                                   ThreadPool& pool) {
  const size_t n = keys_.size();
  // The pruned-ref tag bit halves the addressable range of a ref.
  if (n >= kNeighborRefPrunedTag || pruned_ub_.size() >= kNeighborRefPrunedTag) {
    return;
  }

  // With the active set engaged, a direction's span is also materialized
  // when only the *opposite* weight is nonzero (it is then never evaluated
  // but serves as the reverse-dependency list for frontier marking), and
  // pinned diagonal spans are kept so their first-sweep init -> 1 snap can
  // notify dependents. See the OutRefs comment in the header.
  struct SpanPlan {
    bool use_out;
    bool use_in;
    bool skip_diagonal;
  };
  auto plan_for = [&](bool active_spans) {
    return SpanPlan{
        config.w_out > 0.0 || (active_spans && config.w_in > 0.0),
        config.w_in > 0.0 || (active_spans && config.w_out > 0.0),
        config.pin_diagonal && !active_spans};
  };
  // Entry layout: the packed 8-byte NeighborRef when every row/col fits in
  // 16 bits; positions inside a neighbor list run 0..deg-1, so a direction
  // packs while its max degree is <= 65536. The 12-byte layout otherwise.
  constexpr size_t kPackedDegreeLimit = 0x10000;
  auto packed_for = [&](const SpanPlan& p) {
    return config.use_packed_neighbor_refs &&
           (!p.use_out || (g1.MaxOutDegree() <= kPackedDegreeLimit &&
                           g2.MaxOutDegree() <= kPackedDegreeLimit)) &&
           (!p.use_in || (g1.MaxInDegree() <= kPackedDegreeLimit &&
                          g2.MaxInDegree() <= kPackedDegreeLimit));
  };
  // The pre-filter upper bound Σ |N±(u)|·|N±(v)| (compatibility filtering
  // only shrinks it, so fitting the bound guarantees fitting the index).
  auto max_entries_for = [&](const SpanPlan& p) {
    uint64_t max_entries = 0;
    for (uint64_t key : keys_) {
      const NodeId u = PairFirst(key);
      const NodeId v = PairSecond(key);
      if (p.skip_diagonal && u == v) continue;
      if (p.use_out) {
        max_entries +=
            static_cast<uint64_t>(g1.OutDegree(u)) * g2.OutDegree(v);
      }
      if (p.use_in) {
        max_entries += static_cast<uint64_t>(g1.InDegree(u)) * g2.InDegree(v);
      }
    }
    return max_entries;
  };
  const uint64_t offsets_bytes = (2 * n + 1) * sizeof(uint64_t);
  auto entry_bytes_for = [&](const SpanPlan& p) {
    return packed_for(p) ? sizeof(PackedNeighborRef) : sizeof(NeighborRef);
  };
  auto fits = [&](const SpanPlan& p, uint64_t max_entries) {
    return max_entries * entry_bytes_for(p) + offsets_bytes <=
           config.neighbor_index_budget_bytes;
  };

  // Prefer the widened layout the active set needs; if only the widening
  // blows the budget (single-direction configs double their entry count),
  // fall back to the evaluation-only index — the driver then runs full
  // sweeps (reverse_spans() false), which still beats losing the index.
  bool active_spans = config.active_set != ActiveSetMode::kOff;
  SpanPlan plan = plan_for(active_spans);
  uint64_t max_entries = max_entries_for(plan);
  if (active_spans && !fits(plan, max_entries)) {
    active_spans = false;
    plan = plan_for(false);
    max_entries = max_entries_for(plan);
  }
  if (!fits(plan, max_entries)) return;
  // The one-pass build transiently stages the classified entries once
  // more, so its peak usage can reach twice the final footprint; when the
  // doubled bound would blow the budget but the index itself fits, the
  // bounded count-then-fill build caps peak memory at the final footprint.
  const bool packed = packed_for(plan);
  const uint64_t entry_bytes = entry_bytes_for(plan);
  const bool bounded = 2 * max_entries * entry_bytes + offsets_bytes >
                       config.neighbor_index_budget_bytes;

  if (packed) {
    FillNeighborRefs(g1, g2, config, lsim, pool, bounded, active_spans,
                     &nbr_refs_packed_);
  } else {
    FillNeighborRefs(g1, g2, config, lsim, pool, bounded, active_spans,
                     &nbr_refs_);
  }
  info_.bounded_staging_build = bounded;
  packed_refs_ = packed;
  reverse_spans_ = active_spans;
  evaluates_out_ = config.w_out > 0.0;
  evaluates_in_ = config.w_in > 0.0;
  pin_diagonal_ = config.pin_diagonal;
  has_neighbor_index_ = true;
  CollectLivePairs(pool);
}

bool PairStore::ReadsMaintainedScore(size_t i) const {
  const bool pinned = pin_diagonal_ && U(i) == V(i);
  if (pruned_ub_.empty()) {
    // No tagged refs exist, so every entry reads a maintained score and a
    // nonempty evaluated span decides. Branch-free: about half the pairs
    // of a θ = 1 run are live, in no predictable order.
    const uint64_t* off = nbr_offsets_.data() + 2 * i;
    return (!pinned) & ((evaluates_out_ & (off[1] > off[0])) |
                        (evaluates_in_ & (off[2] > off[1])));
  }
  if (pinned) return false;
  auto any_untagged = [](auto refs) {
    return std::any_of(refs.begin(), refs.end(), [](const auto& e) {
      return !IsPrunedRef(e.ref);
    });
  };
  auto reads = [&](auto out_refs, auto in_refs) {
    return (evaluates_out_ && any_untagged(out_refs)) ||
           (evaluates_in_ && any_untagged(in_refs));
  };
  return packed_refs_ ? reads(OutRefsPacked(i), InRefsPacked(i))
                      : reads(OutRefs(i), InRefs(i));
}

void PairStore::CollectLivePairs(ThreadPool& pool) {
  // Two chunked passes, count then fill, so the list comes out ascending.
  const size_t n = keys_.size();
  const size_t num_chunks = (n + kPairGrain - 1) / kPairGrain;
  std::vector<uint32_t> chunk_offsets(num_chunks + 1, 0);
  pool.ParallelForChunked(n, kPairGrain, [&](int, size_t begin, size_t end) {
    uint32_t count = 0;
    for (size_t i = begin; i < end; ++i) count += ReadsMaintainedScore(i);
    chunk_offsets[begin / kPairGrain + 1] = count;
  });
  for (size_t c = 1; c <= num_chunks; ++c) {
    chunk_offsets[c] += chunk_offsets[c - 1];
  }
  live_pairs_.resize(chunk_offsets[num_chunks]);
  pool.ParallelForChunked(n, kPairGrain, [&](int, size_t begin, size_t end) {
    // Every pair is written at the cursor, which only live pairs advance
    // (branch-free, as above); the bound keeps the writes in this chunk's
    // slots once its last live pair is placed.
    uint32_t pos = chunk_offsets[begin / kPairGrain];
    const uint32_t stop = chunk_offsets[begin / kPairGrain + 1];
    for (size_t i = begin; i < end && pos < stop; ++i) {
      live_pairs_[pos] = static_cast<uint32_t>(i);
      pos += ReadsMaintainedScore(i);
    }
  });
}

template <typename Ref>
void PairStore::FillNeighborRefs(const Graph& g1, const Graph& g2,
                                 const FSimConfig& config,
                                 const LabelSimilarityCache& lsim,
                                 ThreadPool& pool, bool bounded_staging,
                                 bool active_spans, std::vector<Ref>* refs) {
  const bool use_dir[2] = {
      config.w_out > 0.0 || (active_spans && config.w_in > 0.0),
      config.w_in > 0.0 || (active_spans && config.w_out > 0.0)};
  const bool skip_diagonal = config.pin_diagonal && !active_spans;
  const bool track_pruned = config.upper_bound && config.alpha > 0.0;
  const RefClassifier<Graph, Graph> classifier{
      g1, g2, lsim, config.theta, index_,
      track_pruned ? &pruned_index_ : nullptr};
  // One classification pass over N±(u) x N±(v) per pair — roughly the
  // lookup work of a single fallback iteration, repaid after the first
  // indexed iteration.
  auto stage = [&](size_t i, int dir, auto&& emit) {
    const NodeId u = PairFirst(keys_[i]);
    const NodeId v = PairSecond(keys_[i]);
    if (!use_dir[dir] || (skip_diagonal && u == v)) return;
    if (dir == 0) {
      classifier.template ClassifySpan<Ref>(g1.OutNeighbors(u),
                                            g2.OutNeighbors(v), emit);
    } else {
      classifier.template ClassifySpan<Ref>(g1.InNeighbors(u),
                                            g2.InNeighbors(v), emit);
    }
  };
  info_.peak_staging_bytes = FillNeighborSpans<Ref>(
      pool, keys_.size(), bounded_staging, stage, &nbr_offsets_, refs);
}

void FrontierTracker::Init(size_t num_pairs, int num_workers,
                           bool tolerance) {
  num_pairs_ = num_pairs;
  tolerance_ = tolerance;
  epoch_ = 0;
  if (tolerance) {
    stamps_.assign(static_cast<size_t>(num_workers),
                   std::vector<uint32_t>(num_pairs, 0));
    influence_.assign(static_cast<size_t>(num_workers),
                      std::vector<float>(num_pairs, 0.0f));
    carry_.assign(num_pairs, 0.0);
  } else {
    // Value-initialized to epoch 0 (< the first BeginIteration's epoch).
    shared_stamps_ =
        std::make_unique<std::atomic<uint32_t>[]>(num_pairs);
  }
}

void FrontierTracker::BuildNext(ThreadPool& pool, double tolerance,
                                bool previous_sweep_was_full,
                                std::vector<uint32_t>* frontier) {
  const size_t n = num_pairs_;
  // 4096-pair scan chunks: coarse enough that the two-pass offsets stay
  // tiny, fine enough to balance across workers.
  constexpr size_t kScanGrain = 4096;
  const size_t num_chunks = (n + kScanGrain - 1) / kScanGrain;
  chunk_offsets_.assign(num_chunks + 1, 0);
  const uint32_t epoch = epoch_;
  const size_t workers = stamps_.size();

  // Pass 1: per-chunk counts. Exact mode reads the one shared stamp
  // array; tolerance mode collapses the per-worker influence sums into
  // the cross-iteration carry_ accumulator so the fill pass reads one
  // array. Chunks partition the pair range, so carry_ writes are
  // race-free.
  pool.ParallelForChunked(n, kScanGrain, [&](int, size_t begin, size_t end) {
    uint32_t count = 0;
    if (!tolerance_) {
      const std::atomic<uint32_t>* stamps = shared_stamps_.get();
      for (size_t j = begin; j < end; ++j) {
        if (stamps[j].load(std::memory_order_relaxed) == epoch) ++count;
      }
    } else {
      for (size_t j = begin; j < end; ++j) {
        double sum = previous_sweep_was_full ? 0.0 : carry_[j];
        for (size_t w = 0; w < workers; ++w) {
          if (stamps_[w][j] == epoch) sum += influence_[w][j];
        }
        carry_[j] = sum;
        if (sum > tolerance) ++count;
      }
    }
    chunk_offsets_[begin / kScanGrain + 1] = count;
  });
  for (size_t c = 1; c <= num_chunks; ++c) {
    chunk_offsets_[c] += chunk_offsets_[c - 1];
  }

  // Pass 2: fill each chunk's slice; evaluated pairs reset their carried
  // influence (their next evaluation starts from a clean slate).
  frontier->resize(num_chunks == 0 ? 0 : chunk_offsets_[num_chunks]);
  pool.ParallelForChunked(n, kScanGrain, [&](int, size_t begin, size_t end) {
    uint32_t pos = chunk_offsets_[begin / kScanGrain];
    if (!tolerance_) {
      const std::atomic<uint32_t>* stamps = shared_stamps_.get();
      for (size_t j = begin; j < end; ++j) {
        if (stamps[j].load(std::memory_order_relaxed) == epoch) {
          (*frontier)[pos++] = static_cast<uint32_t>(j);
        }
      }
    } else {
      for (size_t j = begin; j < end; ++j) {
        if (carry_[j] > tolerance) {
          (*frontier)[pos++] = static_cast<uint32_t>(j);
          carry_[j] = 0.0;
        }
      }
    }
  });
}

}  // namespace fsim
