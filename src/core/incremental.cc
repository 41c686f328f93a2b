#include "core/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"
#include "common/timer.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_store.h"
#include "obs/trace.h"

namespace fsim {

namespace {

/// The sharpened per-entry influence bound of one direction of a dependent
/// pair (see PushDependents in the header) — the shared operators.h
/// definition, kept under its historical local name.
double InfluenceFactor(const OperatorConfig& op, size_t n1, size_t n2) {
  return PairInfluenceFactor(op, n1, n2);
}

}  // namespace

IncrementalFSim::IncrementalFSim(const Graph& g1, const Graph& g2,
                                 FSimConfig config, IncrementalOptions options)
    : g1_(g1),
      g2_(g2),
      config_(std::move(config)),
      options_(options),
      op_(config_.operators()),
      lsim_(*g1.dict(), config_.label_sim) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  scratch_.resize(static_cast<size_t>(std::max(config_.num_threads, 1)));
}

Result<IncrementalFSim> IncrementalFSim::Create(Graph g1, Graph g2,
                                                FSimConfig config,
                                                IncrementalOptions options,
                                                const FSimScores* warm_seed) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  if (config.upper_bound) {
    return Status::InvalidArgument(
        "incremental maintenance requires the full θ-candidate set "
        "(upper-bound pruning decisions depend on the edges being edited)");
  }
  const double tau = options.propagation_tolerance;
  if (!std::isfinite(tau) || tau < 0.0) {
    return Status::InvalidArgument(
        "propagation_tolerance must be finite and >= 0 (0 derives it from "
        "epsilon)");
  }
  if (tau == 0.0) {
    const double w = config.w_out + config.w_in;
    options.propagation_tolerance = config.epsilon * w / (10.0 * (1.0 + w));
  }

  FSIM_TRACE_SPAN("incremental.create");
  IncrementalFSim inc(g1, g2, std::move(config), options);
  // Every set-up stage runs on the engine pool (inline at one thread).
  ThreadPool inline_pool(1);
  ThreadPool& pool = inc.pool_ ? *inc.pool_ : inline_pool;

  {
    // Enumerate + initialize the candidate pairs; the engine maintains its
    // own edit-capable neighbor index, so PairStore's is skipped.
    FSIM_TRACE_SPAN("incremental.create.keys");
    FSIM_ASSIGN_OR_RETURN(
        PairStore store,
        PairStore::Build(g1, g2, inc.config_, inc.lsim_,
                         /*build_neighbor_index=*/false, &pool));
    // Freeze the initialized candidate set into the shared key set (row
    // ranges over every node of graph 1) and move the FSim^0
    // initialization into the mutable score table.
    inc.key_set_ = PairKeySet::Make(store.TakeKeys(), store.TakeIndex(),
                                    inc.g1_.NumNodes());
    inc.values_ = store.TakeScores();
  }
  const std::vector<uint64_t>& keys = inc.key_set_->keys;
  {
    FSIM_TRACE_SPAN("incremental.create.tables");
    inc.BuildPairTables(pool);
  }
  {
    FSIM_TRACE_SPAN("incremental.create.index");
    inc.nbr_index_.Build(inc.IndexEnv(), keys, inc.config_, &pool);
  }
  // Warm start: overwrite the FSim^0 initialization with the seed's values
  // when the keysets agree exactly. Any mismatch (different graphs, config,
  // or a truncated snapshot) keeps the cold initialization — correctness
  // never depends on the seed, only the solve's iteration count does.
  if (warm_seed != nullptr && warm_seed->keys() == keys) {
    inc.values_ = warm_seed->values();
  }
  {
    FSIM_TRACE_SPAN("incremental.create.solve");
    inc.SolveFull();
  }
  return inc;
}

void IncrementalFSim::BuildPairTables(ThreadPool& pool) {
  const std::vector<uint64_t>& keys = key_set_->keys;
  const size_t n = keys.size();
  const size_t n2 = g2_.NumNodes();

  // The v-grouped CSR (rows come with the key set), as a counting sort over
  // contiguous key blocks: each block counts its columns, the per-block
  // counts become per-block write cursors, and each block scatters its
  // pairs in key order — the same ascending lists a serial scatter writes.
  // Blocks are capped so their count arrays stay within col_pairs_'s size.
  const size_t blocks = std::clamp<size_t>(
      n / std::max<size_t>(n2, 1), 1,
      static_cast<size_t>(pool.num_threads()));
  const size_t block_len = std::max<size_t>((n + blocks - 1) / blocks, 1);
  std::vector<uint32_t> cursors(blocks * n2, 0);
  pool.ParallelForChunked(n, block_len, [&](int, size_t begin, size_t end) {
    uint32_t* counts = cursors.data() + begin / block_len * n2;
    for (size_t i = begin; i < end; ++i) ++counts[PairSecond(keys[i])];
  });
  col_offsets_.assign(n2 + 1, 0);
  for (size_t v = 0; v < n2; ++v) {
    uint32_t cursor = col_offsets_[v];
    for (size_t b = 0; b < blocks; ++b) {
      const uint32_t count = cursors[b * n2 + v];
      cursors[b * n2 + v] = cursor;
      cursor += count;
    }
    col_offsets_[v + 1] = cursor;
  }
  col_pairs_.resize(n);
  pool.ParallelForChunked(n, block_len, [&](int, size_t begin, size_t end) {
    uint32_t* cursor = cursors.data() + begin / block_len * n2;
    for (size_t i = begin; i < end; ++i) {
      col_pairs_[cursor[PairSecond(keys[i])]++] = static_cast<uint32_t>(i);
    }
  });

  in_queue_.assign(n, 0);
  dirty_dir_.assign(n, 0);
  pending_out_.assign(n, 0.0);
  pending_in_.assign(n, 0.0);
  out_cache_.assign(n, 0.0);
  in_cache_.assign(n, 0.0);
  influence_factor_out_.resize(n);
  influence_factor_in_.resize(n);
  const_term_.resize(n);
  const double label_weight = 1.0 - config_.w_out - config_.w_in;
  constexpr size_t kPairGrain = 1024;
  pool.ParallelForChunked(n, kPairGrain, [&](int, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const NodeId u = PairFirst(keys[i]);
      const NodeId v = PairSecond(keys[i]);
      influence_factor_out_[i] =
          InfluenceFactor(op_, g1_.OutDegree(u), g2_.OutDegree(v));
      influence_factor_in_[i] =
          InfluenceFactor(op_, g1_.InDegree(u), g2_.InDegree(v));
      const_term_[i] = label_weight * LabelTermValue(config_, lsim_,
                                                     g1_.Label(u),
                                                     g2_.Label(v));
    }
  });
}

double IncrementalFSim::ComputeDirection(size_t i, int dir,
                                         MatchingScratch* scratch) {
  const NodeId u = PairFirst(key_set_->keys[i]);
  const NodeId v = PairSecond(key_set_->keys[i]);
  if (nbr_index_.enabled()) {
    const double* vals = values_.data();
    auto score_of = [vals](uint32_t ref) -> double { return vals[ref]; };
    if (dir == IncrementalNeighborIndex::kOut) {
      return DirectionScoreIndexed(
          op_, config_.matching, g1_.OutDegree(u), g2_.OutDegree(v),
          nbr_index_.Refs(i, IncrementalNeighborIndex::kOut), score_of,
          scratch);
    }
    return DirectionScoreIndexed(
        op_, config_.matching, g1_.InDegree(u), g2_.InDegree(v),
        nbr_index_.Refs(i, IncrementalNeighborIndex::kIn), score_of,
        scratch);
  }
  auto lookup = [&](NodeId x, NodeId y) -> double {
    if (!lsim_.Compatible(g1_.Label(x), g2_.Label(y), config_.theta)) {
      return -1.0;
    }
    uint32_t idx = key_set_->index.Find(PairKey(x, y));
    return idx == FlatPairMap::kNotFound ? 0.0 : values_[idx];
  };
  if (dir == IncrementalNeighborIndex::kOut) {
    return DirectionScore(op_, config_.matching, g1_.OutNeighbors(u),
                          g2_.OutNeighbors(v), lookup, scratch);
  }
  return DirectionScore(op_, config_.matching, g1_.InNeighbors(u),
                        g2_.InNeighbors(v), lookup, scratch);
}

double IncrementalFSim::EvaluateDirty(size_t i, uint8_t dirty,
                                      MatchingScratch* scratch) {
  const NodeId u = PairFirst(key_set_->keys[i]);
  const NodeId v = PairSecond(key_set_->keys[i]);
  if (config_.pin_diagonal && u == v) return 1.0;
  if ((dirty & kDirtyOut) && config_.w_out > 0.0) {
    out_cache_[i] = ComputeDirection(i, IncrementalNeighborIndex::kOut, scratch);
  }
  if ((dirty & kDirtyIn) && config_.w_in > 0.0) {
    in_cache_[i] = ComputeDirection(i, IncrementalNeighborIndex::kIn, scratch);
  }
  return config_.w_out * out_cache_[i] + config_.w_in * in_cache_[i] +
         const_term_[i];
}

void IncrementalFSim::SolveFull() {
  // Synchronous Jacobi sweeps as in ComputeFSim, with the same delta-driven
  // active-set scheduling when config_.active_set asks for it and the
  // maintained index is live (the serving layer's RefreshDriver passes its
  // FSimConfig straight through, so a warm-started service's background
  // initial solve freezes converged pairs exactly like the batch engine).
  // The maintained index always materializes both direction spans, so the
  // reverse-dependency walk works for single-direction configs too. After
  // the loop one extra *full* recording sweep re-establishes the cache
  // invariant (values_ = combine(caches) with the caches computed against
  // the pre-swap table) and its residual decides convergence — it only
  // shrinks under the contraction, so the extra sweep never loosens the
  // epsilon guarantee, and it also washes out any tolerance-mode
  // frontier slack beyond the documented τ-style bound.
  const size_t n = key_set_->keys.size();
  std::vector<double> next(n);
  const uint32_t max_iters = FSimIterationBound(config_);
  // Reverse-dependency soundness (see ActiveSetDriver::ReverseDepScheme):
  // in-lists must be the transpose of the out-lists, or — the AsUndirected
  // adaptation — empty with symmetric out-lists, in which case the
  // out-span is its own dependent list.
  auto total_in = [](const DynamicGraph& g) {
    size_t total = 0;
    for (NodeId u = 0; u < g.NumNodes(); ++u) total += g.InDegree(u);
    return total;
  };
  const size_t in1 = total_in(g1_);
  const size_t in2 = total_in(g2_);
  const bool transpose =
      in1 == g1_.NumEdges() && in2 == g2_.NumEdges();
  const bool symmetric_out = in1 == 0 && in2 == 0;
  const bool active = config_.active_set != ActiveSetMode::kOff &&
                      nbr_index_.enabled() &&
                      config_.w_out + config_.w_in > 0.0 &&
                      (transpose || symmetric_out);
  const bool tolerance_mode =
      active && config_.active_set == ActiveSetMode::kTolerance;
  const double tol = config_.frontier_tolerance;
  // The maintained index skips pinned diagonal spans, so the init -> 1 snap
  // of the first sweep cannot notify its dependents through them; a second
  // unconditional full sweep absorbs it (diagonals never change again).
  const uint32_t initial_full_sweeps = config_.pin_diagonal ? 2 : 1;
  // Marking deferral, as in ActiveSetDriver: pay for the reverse span walk
  // only once enough pairs look freezable, and keep marking from then on.
  bool marking = active && config_.active_set_activation_fraction == 0.0;
  bool can_build_frontier = false;

  std::vector<uint32_t> stamp;   // exact mode: epoch-tagged dirty marks
  std::vector<double> carry;     // tolerance mode: accumulated influence
  std::vector<uint32_t> frontier;
  std::vector<double> fresh;
  if (active) {
    stamp.assign(n, 0);
    if (tolerance_mode) carry.assign(n, 0.0);
  }

  auto mark_dependents = [&](size_t i, double delta, uint32_t epoch) {
    // No IsPrunedRef guard needed here: Create rejects upper_bound
    // configs, so the maintained index never contains tagged refs.
    auto mark = [&](std::span<const NeighborRef> refs, double base,
                    const std::vector<double>& factor) {
      for (const NeighborRef& e : refs) {
        if (tolerance_mode) {
          carry[e.ref] += base * factor[e.ref];
        } else {
          stamp[e.ref] = epoch;
        }
      }
    };
    if (symmetric_out) {
      // Undirected adaptation: the out-span is its own dependent list; the
      // in-direction reads empty sets everywhere and never changes.
      if (config_.w_out > 0.0) {
        mark(nbr_index_.Refs(i, IncrementalNeighborIndex::kOut),
             config_.w_out * delta, influence_factor_out_);
      }
      return;
    }
    if (config_.w_out > 0.0) {
      mark(nbr_index_.Refs(i, IncrementalNeighborIndex::kIn),
           config_.w_out * delta, influence_factor_out_);
    }
    if (config_.w_in > 0.0) {
      mark(nbr_index_.Refs(i, IncrementalNeighborIndex::kOut),
           config_.w_in * delta, influence_factor_in_);
    }
  };
  auto build_frontier = [&](uint32_t epoch) {
    frontier.clear();
    if (tolerance_mode) {
      for (size_t j = 0; j < n; ++j) {
        if (carry[j] > tol) {
          frontier.push_back(static_cast<uint32_t>(j));
          carry[j] = 0.0;
        }
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        if (stamp[j] == epoch) frontier.push_back(static_cast<uint32_t>(j));
      }
    }
  };

  uint32_t epoch = 0;
  for (uint32_t iter = 1; iter <= max_iters; ++iter) {
    const bool full =
        !active || !can_build_frontier || iter <= initial_full_sweeps ||
        static_cast<double>(frontier.size()) >=
            config_.frontier_density_threshold * static_cast<double>(n);
    ++epoch;
    double max_delta = 0.0;
    size_t evaluated = 0;
    size_t freeze_signal = 0;   // tolerance: sub-tol deltas
    uint64_t dep_bound = 0;     // exact: changed pairs' dependent cover
    auto absorb = [&](size_t i, double value) {
      const double delta = std::abs(value - values_[i]);
      max_delta = std::max(max_delta, delta);
      if (tolerance_mode && delta <= tol) ++freeze_signal;
      if (delta != 0.0) {
        if (marking) {
          mark_dependents(i, delta, epoch);
        } else if (!tolerance_mode) {
          dep_bound += nbr_index_.Refs(i, IncrementalNeighborIndex::kOut).size() +
                       nbr_index_.Refs(i, IncrementalNeighborIndex::kIn).size();
        }
      }
    };
    if (full) {
      // Jacobi evaluations: each reads the pre-sweep values_ and writes one
      // next[i], so the parallel sweep is bit-identical to the serial loop
      // (the absorb/marking phase below stays serial either way).
      if (pool_) {
        pool_->ParallelForChunked(
            n, config_.iterate_grain, [&](int worker, size_t b, size_t e) {
              MatchingScratch* scratch = &scratch_[worker];
              for (size_t i = b; i < e; ++i) {
                next[i] = EvaluateDirty(i, kDirtyOut | kDirtyIn, scratch);
              }
            });
      } else {
        for (size_t i = 0; i < n; ++i) {
          next[i] = EvaluateDirty(i, kDirtyOut | kDirtyIn, &scratch_[0]);
        }
      }
      // The full evaluation absorbs all pending influence; only this
      // sweep's fresh marks may carry forward.
      if (tolerance_mode && marking) std::fill(carry.begin(), carry.end(), 0.0);
      for (size_t i = 0; i < n; ++i) absorb(i, next[i]);
      values_.swap(next);
      evaluated = n;
    } else {
      // Two phases keep the Jacobi semantics (every evaluation reads the
      // pre-sweep table); frozen pairs carry their value in place.
      fresh.resize(frontier.size());
      if (pool_) {
        // Priority draining by evaluation cost; fresh values land in an
        // id-keyed scratch since workers see reordered slices.
        if (wave_fresh_.size() < n) wave_fresh_.resize(n);
        pool_->ParallelForFrontier(
            frontier,
            [this](uint32_t i) {
              return static_cast<float>(
                  nbr_index_.Refs(i, IncrementalNeighborIndex::kOut).size() +
                  nbr_index_.Refs(i, IncrementalNeighborIndex::kIn).size());
            },
            config_.iterate_grain,
            [&](int worker, std::span<const uint32_t> ids) {
              MatchingScratch* scratch = &scratch_[worker];
              for (uint32_t i : ids) {
                wave_fresh_[i] = EvaluateDirty(i, kDirtyOut | kDirtyIn, scratch);
              }
            });
        for (size_t k = 0; k < frontier.size(); ++k) {
          fresh[k] = wave_fresh_[frontier[k]];
        }
      } else {
        for (size_t k = 0; k < frontier.size(); ++k) {
          fresh[k] = EvaluateDirty(frontier[k], kDirtyOut | kDirtyIn,
                                   &scratch_[0]);
        }
      }
      for (size_t k = 0; k < frontier.size(); ++k) {
        absorb(frontier[k], fresh[k]);
        values_[frontier[k]] = fresh[k];
      }
      evaluated = frontier.size();
    }
    if (marking) build_frontier(epoch);
    can_build_frontier = marking;
    if (active && !marking) {
      // Same activation signals as ActiveSetDriver: exact mode watches the
      // changed pairs' dependent cover, tolerance the sub-tol fraction
      // (gated on enough skippable pairs to beat the density threshold).
      if (tolerance_mode) {
        const double needed =
            std::max(config_.active_set_activation_fraction *
                         static_cast<double>(evaluated),
                     (1.0 - config_.frontier_density_threshold) *
                         static_cast<double>(n));
        marking = static_cast<double>(freeze_signal) >= needed;
      } else {
        marking = static_cast<double>(dep_bound) <=
                  (1.0 - config_.active_set_activation_fraction) *
                      static_cast<double>(n);
      }
    }
    if (max_delta < config_.epsilon) break;
  }

  double max_delta = 0.0;
  if (pool_) {
    pool_->ParallelForChunked(
        n, config_.iterate_grain, [&](int worker, size_t b, size_t e) {
          MatchingScratch* scratch = &scratch_[worker];
          for (size_t i = b; i < e; ++i) {
            next[i] = EvaluateDirty(i, kDirtyOut | kDirtyIn, scratch);
          }
        });
    for (size_t i = 0; i < n; ++i) {
      max_delta = std::max(max_delta, std::abs(next[i] - values_[i]));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      next[i] = EvaluateDirty(i, kDirtyOut | kDirtyIn, &scratch_[0]);
      max_delta = std::max(max_delta, std::abs(next[i] - values_[i]));
    }
  }
  values_.swap(next);
  converged_ = max_delta < config_.epsilon;
}

void IncrementalFSim::MaybeEnqueue(uint32_t idx) {
  if (in_queue_[idx]) return;
  if (pending_out_[idx] + pending_in_[idx] <=
      options_.propagation_tolerance) {
    return;
  }
  in_queue_[idx] = 1;
  queue_.push_back(idx);
}

void IncrementalFSim::AddPendingOut(uint32_t idx, double influence) {
  pending_out_[idx] += influence;
  MaybeEnqueue(idx);
}

void IncrementalFSim::AddPendingIn(uint32_t idx, double influence) {
  pending_in_[idx] += influence;
  MaybeEnqueue(idx);
}

void IncrementalFSim::PushDependents(size_t i, double delta) {
  if (nbr_index_.enabled()) {
    // Pair i's own spans double as its dependent lists: the in-span refs
    // are the maintained pairs (x, y) with x ∈ N-(u), y ∈ N-(v) — exactly
    // the pairs whose out-direction reads (u, v) — and symmetrically for
    // the out-span. The ref walk replaces |N±(u)|·|N±(v)| hash probes.
    if (config_.w_out > 0.0) {
      const double base = config_.w_out * delta;
      for (const NeighborRef& e :
           nbr_index_.Refs(i, IncrementalNeighborIndex::kIn)) {
        AddPendingOut(e.ref, base * influence_factor_out_[e.ref]);
      }
    }
    if (config_.w_in > 0.0) {
      const double base = config_.w_in * delta;
      for (const NeighborRef& e :
           nbr_index_.Refs(i, IncrementalNeighborIndex::kOut)) {
        AddPendingIn(e.ref, base * influence_factor_in_[e.ref]);
      }
    }
    return;
  }
  const NodeId u = PairFirst(key_set_->keys[i]);
  const NodeId v = PairSecond(key_set_->keys[i]);
  // (u, v) is read by the out-direction of pairs in N-(u) x N-(v), where it
  // can move the result by at most w+ * c * delta / Ωχ of that dependent
  // (the sharpened Lipschitz bound, see the header) ...
  if (config_.w_out > 0.0) {
    const double base = config_.w_out * delta;
    for (NodeId up : g1_.InNeighbors(u)) {
      for (NodeId vp : g2_.InNeighbors(v)) {
        const uint32_t idx = key_set_->index.Find(PairKey(up, vp));
        if (idx == FlatPairMap::kNotFound) continue;
        AddPendingOut(idx, base * influence_factor_out_[idx]);
      }
    }
  }
  // ... and by the in-direction of pairs in N+(u) x N+(v).
  if (config_.w_in > 0.0) {
    const double base = config_.w_in * delta;
    for (NodeId up : g1_.OutNeighbors(u)) {
      for (NodeId vp : g2_.OutNeighbors(v)) {
        const uint32_t idx = key_set_->index.Find(PairKey(up, vp));
        if (idx == FlatPairMap::kNotFound) continue;
        AddPendingIn(idx, base * influence_factor_in_[idx]);
      }
    }
  }
}

uint32_t IncrementalFSim::MaxWaves() const {
  // Wave cap (the Corollary 1 argument applied to the repair): changes
  // shrink by at least the contraction factor w per propagation wave, so
  // after ceil(log_w(tau)) waves every remaining change is below tau and
  // would be absorbed anyway. The cap also guarantees termination when the
  // greedy matching's occasional non-Lipschitz tie flips would otherwise
  // sustain a sub-tau-adjacent oscillation.
  const double tau = options_.propagation_tolerance;
  const double w = config_.w_out + config_.w_in;
  if (w > 0.0 && w < 1.0 && tau < 1.0) {
    return static_cast<uint32_t>(std::ceil(std::log(tau) / std::log(w))) + 2;
  }
  return 1;
}

Status IncrementalFSim::FinishPropagate(uint64_t recomputed, uint64_t changed,
                                        uint32_t wave, bool wave_capped,
                                        bool update_capped,
                                        double elapsed_seconds) {
  // Reset any worklist remainder so the engine stays usable. Wave-capped
  // leftovers carry sub-tolerance influence by the geometric-decay argument;
  // update-cap leftovers may not — either way the snapshot reports the
  // truncation via converged=false.
  for (size_t q = queue_head_; q < queue_.size(); ++q) {
    in_queue_[queue_[q]] = 0;
    dirty_dir_[queue_[q]] = 0;
    pending_out_[queue_[q]] = 0.0;
    pending_in_[queue_[q]] = 0.0;
  }
  queue_.clear();
  queue_head_ = 0;
  last_edit_.recomputed = recomputed;
  last_edit_.changed = changed;
  last_edit_.waves = wave;
  last_edit_.truncated = wave_capped || update_capped;
  if (last_edit_.truncated) converged_ = false;
  last_edit_.propagate_seconds = elapsed_seconds;
  if (update_capped) {
    return Status::Internal(StrFormat(
        "edit exceeded max_updates_per_edit (%llu); scores may not have "
        "re-converged",
        static_cast<unsigned long long>(options_.max_updates_per_edit)));
  }
  return Status::OK();
}

Status IncrementalFSim::Propagate() {
  if (pool_) return PropagateWaves();
  FSIM_TRACE_SPAN("incremental.propagate.serial");
  Timer timer;
  const double tau = options_.propagation_tolerance;
  const uint32_t max_waves = MaxWaves();

  uint64_t recomputed = 0;
  uint64_t changed = 0;
  uint32_t wave = 0;
  size_t wave_end = queue_.size();
  bool wave_capped = false;
  bool update_capped = false;
  // Within a wave, absorb the largest accumulated influences first: their
  // deltas then land in dependents' pending sums before those dependents
  // are themselves evaluated, so one evaluation absorbs several inputs and
  // the repeat-evaluation tail of later waves shrinks. A full sort pays
  // more than it saves (measured ~10% of the edit in comparator cache
  // misses), so a linear stable two-class partition around 1/16 of the wave
  // maximum captures the head of the geometric influence distribution
  // instead. Ordering only reshuffles the chaotic iteration; the fixpoint
  // and the τ error budget are order-independent.
  std::vector<uint32_t>& wave_scratch = wave_scratch_;
  auto partition_wave = [&](size_t begin, size_t end) {
    if (end - begin < 64) return;
    double max_pending = 0.0;
    for (size_t q = begin; q < end; ++q) {
      const uint32_t i = queue_[q];
      max_pending =
          std::max(max_pending, pending_out_[i] + pending_in_[i]);
    }
    const double threshold = max_pending / 16.0;
    wave_scratch.clear();
    size_t big = begin;
    for (size_t q = begin; q < end; ++q) {
      const uint32_t i = queue_[q];
      if (pending_out_[i] + pending_in_[i] >= threshold) {
        queue_[big++] = i;
      } else {
        wave_scratch.push_back(i);
      }
    }
    std::copy(wave_scratch.begin(), wave_scratch.end(), queue_.begin() + big);
  };
  partition_wave(queue_head_, wave_end);
  while (queue_head_ < queue_.size()) {
    if (queue_head_ == wave_end) {
      ++wave;
      wave_end = queue_.size();
      if (wave >= max_waves) {
        wave_capped = true;
        break;
      }
      partition_wave(queue_head_, wave_end);
    }
    const uint32_t i = queue_[queue_head_++];
    in_queue_[i] = 0;
    uint8_t dirty = dirty_dir_[i];
    if (pending_out_[i] > 0.0) dirty |= kDirtyOut;
    if (pending_in_[i] > 0.0) dirty |= kDirtyIn;
    dirty_dir_[i] = 0;
    pending_out_[i] = 0.0;
    pending_in_[i] = 0.0;
    const double fresh = EvaluateDirty(i, dirty, &scratch_[0]);
    ++recomputed;
    const double delta = std::abs(fresh - values_[i]);
    // Commit before any truncation check: the evaluation is already paid
    // for, and the committed value is closer to the fixpoint.
    values_[i] = fresh;
    if (delta > tau) {
      ++changed;
      PushDependents(i, delta);
    }
    if (recomputed >= options_.max_updates_per_edit &&
        queue_head_ < queue_.size()) {
      update_capped = true;
      break;
    }
  }
  return FinishPropagate(recomputed, changed, wave, wave_capped, update_capped,
                         timer.Seconds());
}

Status IncrementalFSim::PropagateWaves() {
  Timer timer;
  FSIM_TRACE_SPAN("incremental.propagate");
  const double tau = options_.propagation_tolerance;
  const uint32_t max_waves = MaxWaves();
  // Waves below this size keep the serial chaotic ordering: the propagation
  // tail is many tiny waves whose same-wave absorption the Jacobi split
  // would forfeit, and a parallel region would not amortize its dispatch.
  // The test depends only on wave content, so any thread count walks the
  // same trajectory (parallel runs are bit-identical to each other).
  constexpr size_t kParallelWaveMin = 32;
  // Wave regions deal in small chunks: one item is a whole matching
  // evaluation, so rebalancing granularity beats chunk-claim amortization.
  constexpr size_t kWaveGrain = 8;

  const size_t n = key_set_->keys.size();
  if (wave_fresh_.size() < n) wave_fresh_.resize(n);
  if (wave_weight_.size() < n) wave_weight_.resize(n);
  if (wave_dirty_.size() < n) wave_dirty_.resize(n);

  uint64_t recomputed = 0;
  uint64_t changed = 0;
  uint32_t wave = 0;
  bool wave_capped = false;
  bool update_capped = false;

  size_t wave_begin = queue_head_;
  size_t wave_end = queue_.size();
  while (wave_begin < wave_end && !update_capped) {
    FSIM_TRACE_SPAN_ARG("incremental.wave", wave_end - wave_begin);
    if (wave_end - wave_begin < kParallelWaveMin) {
      // Serial chaotic tail: identical to Propagate's inner loop, so small
      // repairs (the common case) match the serial engine bit for bit.
      for (size_t q = wave_begin; q < wave_end; ++q) {
        const uint32_t i = queue_[q];
        queue_head_ = q + 1;
        in_queue_[i] = 0;
        uint8_t dirty = dirty_dir_[i];
        if (pending_out_[i] > 0.0) dirty |= kDirtyOut;
        if (pending_in_[i] > 0.0) dirty |= kDirtyIn;
        dirty_dir_[i] = 0;
        pending_out_[i] = 0.0;
        pending_in_[i] = 0.0;
        const double fresh = EvaluateDirty(i, dirty, &scratch_[0]);
        ++recomputed;
        const double delta = std::abs(fresh - values_[i]);
        values_[i] = fresh;
        if (delta > tau) {
          ++changed;
          PushDependents(i, delta);
        }
        if (recomputed >= options_.max_updates_per_edit &&
            queue_head_ < queue_.size()) {
          update_capped = true;
          break;
        }
      }
    } else {
      // Phase 0 (serial): snapshot each item's dirty bits and priority
      // weight, then release its worklist slot — pushes during phase 2
      // accumulate fresh pending influence for the *next* wave instead of
      // being wiped with this one's.
      for (size_t q = wave_begin; q < wave_end; ++q) {
        const uint32_t i = queue_[q];
        uint8_t dirty = dirty_dir_[i];
        if (pending_out_[i] > 0.0) dirty |= kDirtyOut;
        if (pending_in_[i] > 0.0) dirty |= kDirtyIn;
        wave_dirty_[i] = dirty;
        wave_weight_[i] =
            static_cast<float>(pending_out_[i] + pending_in_[i]);
        dirty_dir_[i] = 0;
        pending_out_[i] = 0.0;
        pending_in_[i] = 0.0;
        in_queue_[i] = 0;
      }
      // Phase 1 (parallel): evaluate the wave against the pre-wave score
      // table (Jacobi within the wave), biggest accumulated influence
      // first. Each item writes only its own caches and wave_fresh_ slot.
      std::span<const uint32_t> items(queue_.data() + wave_begin,
                                      wave_end - wave_begin);
      pool_->ParallelForFrontier(
          items, [this](uint32_t i) { return wave_weight_[i]; }, kWaveGrain,
          [&](int worker, std::span<const uint32_t> ids) {
            MatchingScratch* scratch = &scratch_[worker];
            for (uint32_t i : ids) {
              wave_fresh_[i] = EvaluateDirty(i, wave_dirty_[i], scratch);
            }
          });
      // Phase 2 (serial, wave order): commit and propagate. Deterministic
      // at any thread count — the pending sums and the next wave's order
      // depend only on this fixed commit order.
      for (size_t q = wave_begin; q < wave_end; ++q) {
        const uint32_t i = queue_[q];
        queue_head_ = q + 1;
        const double fresh = wave_fresh_[i];
        ++recomputed;
        const double delta = std::abs(fresh - values_[i]);
        values_[i] = fresh;
        if (delta > tau) {
          ++changed;
          PushDependents(i, delta);
        }
        if (recomputed >= options_.max_updates_per_edit &&
            queue_head_ < queue_.size()) {
          update_capped = true;
          break;
        }
      }
    }
    if (update_capped) break;
    wave_begin = wave_end;
    wave_end = queue_.size();
    if (wave_begin >= wave_end) break;
    ++wave;
    if (wave >= max_waves) {
      wave_capped = true;
      break;
    }
  }
  return FinishPropagate(recomputed, changed, wave, wave_capped, update_capped,
                         timer.Seconds());
}

void IncrementalFSim::SeedEndpointPairs(int graph_index, NodeId a, NodeId b) {
  // The edit changed N+(a) and N-(b) of the edited graph, so the pairs on
  // row/column a need their out-direction recomputed and those on row/column
  // b their in-direction. The structural change is flagged via dirty_dir_
  // (a pending magnitude cannot express "the input *set* changed").
  size_t seeded = 0;
  auto seed = [&](uint32_t i, uint8_t dir_bit) {
    dirty_dir_[i] |= dir_bit;
    if (!in_queue_[i]) {
      in_queue_[i] = 1;
      queue_.push_back(i);
      ++seeded;
    }
  };
  if (graph_index == 1) {
    for (uint32_t i = key_set_->row_offsets[a]; i < key_set_->row_offsets[a + 1]; ++i) {
      seed(i, kDirtyOut);
    }
    for (uint32_t i = key_set_->row_offsets[b]; i < key_set_->row_offsets[b + 1]; ++i) {
      seed(i, kDirtyIn);
    }
  } else {
    for (uint32_t c = col_offsets_[a]; c < col_offsets_[a + 1]; ++c) {
      seed(col_pairs_[c], kDirtyOut);
    }
    for (uint32_t c = col_offsets_[b]; c < col_offsets_[b + 1]; ++c) {
      seed(col_pairs_[c], kDirtyIn);
    }
  }
  last_edit_.seeded_pairs = seeded;
}

Status IncrementalFSim::ApplyEdit(int graph_index, NodeId from, NodeId to,
                                  bool insert) {
  if (graph_index != 1 && graph_index != 2) {
    return Status::InvalidArgument("graph_index must be 1 or 2");
  }
  last_edit_ = EditStats{};
  Timer edit_timer;
  DynamicGraph& target = graph_index == 1 ? g1_ : g2_;
  // A rejected edit (duplicate insert, absent removal, bad endpoint) leaves
  // the adjacency, index and scores untouched.
  FSIM_RETURN_NOT_OK(insert ? target.InsertEdge(from, to)
                            : target.RemoveEdge(from, to));
  last_edit_.graph_rebuild_seconds = edit_timer.Seconds();

  // Patch exactly what the edit invalidated. A graph-1 edit (from, to)
  // changes N+(from) and N-(to), so the out-spans (and out-direction Ωχ
  // factors) of row `from` and the in-spans/factors of row `to`; a graph-2
  // edit the same per column. (For a self-loop from == to both loops walk
  // the same row/column, re-staging its two distinct directions.) The
  // influence factors are refreshed even when the index is over budget —
  // the hash fallback shares the sharpened propagation bound.
  Timer patch_timer;
  const bool indexed = nbr_index_.enabled();
  const NeighborIndexEnv env = IndexEnv();
  const uint64_t restaged_before = nbr_index_.restaged_spans();
  const OperatorConfig& op = op_;
  if (graph_index == 1) {
    for (uint32_t i = key_set_->row_offsets[from]; i < key_set_->row_offsets[from + 1]; ++i) {
      const NodeId v = PairSecond(key_set_->keys[i]);
      if (indexed) {
        nbr_index_.Restage(i, IncrementalNeighborIndex::kOut, from, v, env);
      }
      influence_factor_out_[i] =
          InfluenceFactor(op, g1_.OutDegree(from), g2_.OutDegree(v));
    }
    for (uint32_t i = key_set_->row_offsets[to]; i < key_set_->row_offsets[to + 1]; ++i) {
      const NodeId v = PairSecond(key_set_->keys[i]);
      if (indexed) {
        nbr_index_.Restage(i, IncrementalNeighborIndex::kIn, to, v, env);
      }
      influence_factor_in_[i] =
          InfluenceFactor(op, g1_.InDegree(to), g2_.InDegree(v));
    }
  } else {
    for (uint32_t c = col_offsets_[from]; c < col_offsets_[from + 1]; ++c) {
      const uint32_t i = col_pairs_[c];
      const NodeId u = PairFirst(key_set_->keys[i]);
      if (indexed) {
        nbr_index_.Restage(i, IncrementalNeighborIndex::kOut, u, from, env);
      }
      influence_factor_out_[i] =
          InfluenceFactor(op, g1_.OutDegree(u), g2_.OutDegree(from));
    }
    for (uint32_t c = col_offsets_[to]; c < col_offsets_[to + 1]; ++c) {
      const uint32_t i = col_pairs_[c];
      const NodeId u = PairFirst(key_set_->keys[i]);
      if (indexed) {
        nbr_index_.Restage(i, IncrementalNeighborIndex::kIn, u, to, env);
      }
      influence_factor_in_[i] =
          InfluenceFactor(op, g1_.InDegree(u), g2_.InDegree(to));
    }
  }
  last_edit_.restaged_spans =
      static_cast<size_t>(nbr_index_.restaged_spans() - restaged_before);
  last_edit_.index_patch_seconds = patch_timer.Seconds();

  // The pairs whose own Equation 3 inputs changed shape: `from`'s
  // out-neighbor set and `to`'s in-neighbor set in the edited graph.
  SeedEndpointPairs(graph_index, from, to);
  return Propagate();
}

Status IncrementalFSim::InsertEdge(int graph_index, NodeId from, NodeId to) {
  return ApplyEdit(graph_index, from, to, /*insert=*/true);
}

Status IncrementalFSim::RemoveEdge(int graph_index, NodeId from, NodeId to) {
  return ApplyEdit(graph_index, from, to, /*insert=*/false);
}

double IncrementalFSim::error_bound() const {
  if (!converged_) return std::numeric_limits<double>::infinity();
  const double w = config_.w_out + config_.w_in;
  return (config_.epsilon * w + options_.propagation_tolerance * (1.0 + w)) /
         (1.0 - w);
}

FSimScores IncrementalFSim::Snapshot() const {
  FSimStats stats;
  stats.maintained_pairs = key_set_->keys.size();
  stats.theta_candidates = key_set_->keys.size();
  stats.converged = converged_;
  stats.used_neighbor_index = nbr_index_.enabled();
  stats.neighbor_index_bytes =
      nbr_index_.enabled() ? nbr_index_.MemoryBytes() : 0;
  return FSimScores(key_set_, values_, stats);
}

}  // namespace fsim
