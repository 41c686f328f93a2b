// The per-pair Equation 3 evaluation shared by the Algorithm 1 engines
// (ComputeFSim, ComputeTopKPairs): one iterate-loop body that reads
// previous-iteration scores either through the pair-graph CSR neighbor
// index (direct array indexing — the fast path) or through the
// label-check + hash-probe fallback when the index was not materialized.
// Both paths produce bit-identical sums: the index enumerates exactly the
// candidate pairs the fallback's nested loops visit, in the same order.
#ifndef FSIM_CORE_PAIR_EVALUATOR_H_
#define FSIM_CORE_PAIR_EVALUATOR_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/fsim_config.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "core/pair_store.h"
#include "graph/graph.h"
#include "label/label_similarity.h"
#include "obs/trace.h"

namespace fsim {

/// Evaluates FSim^k(u, v) for maintained pairs against a PairStore's
/// previous-iteration buffer. Stateless between calls except for the
/// caller-owned MatchingScratch, so one instance serves all workers.
class PairEvaluator {
 public:
  PairEvaluator(const Graph& g1, const Graph& g2, const FSimConfig& config,
                const LabelSimilarityCache& lsim, const PairStore& store)
      : g1_(g1),
        g2_(g2),
        config_(config),
        lsim_(lsim),
        store_(store),
        op_(config.operators()),
        label_weight_(1.0 - config.w_out - config.w_in),
        alpha_(config.upper_bound ? config.alpha : 0.0) {}

  /// The Equation 3 value of store pair i from the previous-iteration
  /// scores. Safe to call concurrently with distinct scratches.
  double Evaluate(size_t i, MatchingScratch* scratch) const {
    const NodeId u = store_.U(i);
    const NodeId v = store_.V(i);
    if (config_.pin_diagonal && u == v) return 1.0;
    double out_score = 0.0;
    double in_score = 0.0;
    if (store_.has_neighbor_index()) {
      const double* prev = store_.prev_data();
      const float* pruned = store_.pruned_bounds_data();
      auto score_of = [prev, pruned, this](uint32_t ref) -> double {
        if (ref & kNeighborRefPrunedTag) {
          return alpha_ *
                 static_cast<double>(pruned[ref & ~kNeighborRefPrunedTag]);
        }
        return prev[ref];
      };
      // One evaluation body for both index entry layouts (the packed
      // 8-byte refs of degree-bounded graphs and the wide 12-byte refs).
      auto evaluate_refs = [&](auto out_refs, auto in_refs) {
        if (config_.w_out > 0.0) {
          out_score = DirectionScoreIndexed(op_, config_.matching,
                                            g1_.OutDegree(u), g2_.OutDegree(v),
                                            out_refs, score_of, scratch);
        }
        if (config_.w_in > 0.0) {
          in_score = DirectionScoreIndexed(op_, config_.matching,
                                           g1_.InDegree(u), g2_.InDegree(v),
                                           in_refs, score_of, scratch);
        }
      };
      if (store_.packed_refs()) {
        evaluate_refs(store_.OutRefsPacked(i), store_.InRefsPacked(i));
      } else {
        evaluate_refs(store_.OutRefs(i), store_.InRefs(i));
      }
    } else {
      // Previous-iteration score of (x, y); negative = not mappable under
      // the label constraint. Pairs pruned by the upper bound contribute
      // alpha * bound (0 with the default alpha = 0).
      auto lookup = [this](NodeId x, NodeId y) -> double {
        if (!lsim_.Compatible(g1_.Label(x), g2_.Label(y), config_.theta)) {
          return -1.0;
        }
        uint32_t idx = store_.Find(x, y);
        if (idx != FlatPairMap::kNotFound) return store_.prev(idx);
        if (alpha_ > 0.0) return alpha_ * store_.PrunedUpperBound(x, y);
        return 0.0;
      };
      if (config_.w_out > 0.0) {
        out_score = DirectionScore(op_, config_.matching, g1_.OutNeighbors(u),
                                   g2_.OutNeighbors(v), lookup, scratch);
      }
      if (config_.w_in > 0.0) {
        in_score = DirectionScore(op_, config_.matching, g1_.InNeighbors(u),
                                  g2_.InNeighbors(v), lookup, scratch);
      }
    }
    return config_.w_out * out_score + config_.w_in * in_score +
           label_weight_ * LabelTerm(u, v);
  }

 private:
  double LabelTerm(NodeId u, NodeId v) const {
    return LabelTermValue(config_, lsim_, g1_.Label(u), g2_.Label(v));
  }

  const Graph& g1_;
  const Graph& g2_;
  const FSimConfig& config_;
  const LabelSimilarityCache& lsim_;
  const PairStore& store_;
  const OperatorConfig op_;
  const double label_weight_;
  const double alpha_;
};

/// Cache-line-padded per-worker accumulator (avoids false sharing in the
/// parallel delta reduction).
struct alignas(64) WorkerMaxDelta {
  double value = 0.0;
};

/// Delta-driven active-set scheduling of the Algorithm 1 iterate loop,
/// shared by ComputeFSim and ComputeTopKPairs (docs/performance.md
/// "Active-set iteration"). Each Step() runs one synchronous Jacobi
/// iteration and leaves the store's previous-score buffer holding the
/// complete new state:
///
///  * The first iteration (and every iteration with the active set off or
///    the CSR index absent) is a plain full sweep followed by an O(1)
///    SwapBuffers. The first sweep evaluates every maintained pair; with
///    the index, it then copies its values into both buffers, and later
///    full sweeps evaluate only PairStore::LivePairs(). A constant pair's
///    Eq. 3 inputs are its degrees, labels and Eq. 6 bounds, so its value
///    is final after sweep 1 and its delta is exactly 0 from sweep 2 on;
///    skipping it changes no value, delta or iteration count.
///  * While sweeping, workers stamp the dependents of every changed pair
///    into their FrontierTracker arrays by walking the pair's own CSR
///    spans in reverse: the refs of the in-span are exactly the pairs
///    reading (u, v) through their out-direction, and vice versa (the same
///    double duty the incremental engine's spans serve).
///  * Later iterations evaluate only the built frontier and commit the
///    evaluated entries into the previous buffer (selective forward copy);
///    every frozen pair keeps its score for free. Frontiers at or above
///    FSimConfig::frontier_density_threshold of the live pairs fall back
///    to a full sweep — dense frontiers are cheaper as sweeps.
///
/// In kExact mode a pair is skipped only when *none* of its inputs changed
/// at all, which (with the deterministic operators) is provably
/// bit-identical to running full sweeps: identical inputs produce the
/// identical value, the observed max delta equals the true max delta
/// (frozen pairs have exactly zero change), so scores, iteration count and
/// convergence decision all coincide. kTolerance additionally skips pairs
/// whose accumulated input influence — Σ w± · c/Ωχ · |Δ| with the
/// sharpened per-pair factors of core/incremental.h — stays below
/// frontier_tolerance, trading bounded error for fewer evaluations.
class ActiveSetDriver {
 public:
  /// How a changed pair's dependents are found from its own spans.
  enum class ReverseDepScheme {
    /// In-lists are the transpose of out-lists (every GraphBuilder/IO
    /// graph): dependents reading i through their out-direction are the
    /// refs of i's in-span, and vice versa.
    kTranspose,
    /// The AsUndirected adaptation (§4.3: symmetric out-adjacency, empty
    /// in-lists): u ∈ N+(x) ⟺ x ∈ N+(u), so the out-span is its own
    /// dependent list; the in-direction reads empty sets everywhere and
    /// never changes.
    kSymmetricOut,
  };

  ActiveSetDriver(ThreadPool& pool, PairStore& store,
                  const PairEvaluator& evaluator, const Graph& g1,
                  const Graph& g2, const FSimConfig& config)
      : pool_(pool),
        store_(store),
        evaluator_(evaluator),
        config_(config),
        live_(store.LivePairs()),
        sweep_pairs_(store.has_neighbor_index() ? live_.size()
                                                : store.size()),
        scratch_(static_cast<size_t>(pool.num_threads())),
        worker_stats_(static_cast<size_t>(pool.num_threads())) {
    mode_ = ActiveSetMode::kOff;
    if (store.has_neighbor_index() && store.reverse_spans() &&
        config.w_out + config.w_in > 0.0) {
      const bool transpose = g1.NumInEdges() == g1.NumEdges() &&
                             g2.NumInEdges() == g2.NumEdges();
      const bool symmetric_out =
          g1.NumInEdges() == 0 && g2.NumInEdges() == 0;
      if (transpose || symmetric_out) {
        mode_ = config.active_set;
        scheme_ = transpose ? ReverseDepScheme::kTranspose
                            : ReverseDepScheme::kSymmetricOut;
      }
      // Neither shape (partially populated in-lists that are not the
      // transpose) has no sound reverse walk; stay on full sweeps.
    }
    if (mode_ == ActiveSetMode::kTolerance) {
      const OperatorConfig op = config.operators();
      influence_out_.resize(store.size());
      influence_in_.resize(store.size());
      for (size_t i = 0; i < store.size(); ++i) {
        const NodeId u = store.U(i);
        const NodeId v = store.V(i);
        influence_out_[i] = static_cast<float>(
            PairInfluenceFactor(op, g1.OutDegree(u), g2.OutDegree(v)));
        influence_in_[i] = static_cast<float>(
            PairInfluenceFactor(op, g1.InDegree(u), g2.InDegree(v)));
      }
    }
    if (mode_ != ActiveSetMode::kOff) {
      tracker_.Init(store.size(), pool.num_threads(),
                    mode_ == ActiveSetMode::kTolerance);
      marking_ = config.active_set_activation_fraction == 0.0;
    }
  }

  /// Runs one iteration (frontier or full sweep per the policy above) and
  /// returns max |FSim^k - FSim^{k-1}| over the evaluated pairs — in exact
  /// mode, exactly the full sweep's max delta.
  double Step() {
    ++iter_;
    // A frontier is only sound when the *previous* sweep marked dependents
    // (see marking_ below); density decides whether it is worth indirect
    // evaluation.
    bool full = true;
    if (can_build_frontier_) {
      Timer build_timer;
      FSIM_TRACE_SPAN("engine.frontier_build");
      tracker_.BuildNext(pool_, config_.frontier_tolerance,
                         last_was_full_sweep_, &frontier_);
      frontier_build_seconds_ += build_timer.Seconds();
      full = static_cast<double>(frontier_.size()) >=
             config_.frontier_density_threshold *
                 static_cast<double>(sweep_pairs_);
    }
    if (marking_) tracker_.BeginIteration();
    for (auto& w : worker_stats_) w = WorkerSweepStats{};
    const size_t iterate_grain = config_.iterate_grain;
    if (full) {
      // Sweeps after the first evaluate the live pairs only: the first
      // leaves every constant pair's final value in both buffers.
      const size_t count = iter_ == 1 ? store_.size() : sweep_pairs_;
      FSIM_TRACE_SPAN_ARG("engine.sweep.full", count);
      auto sweep = [&](auto pair_at) {
        pool_.ParallelForChunked(
            count, iterate_grain, [&](int worker, size_t begin, size_t end) {
              MatchingScratch* scratch = &scratch_[worker];
              WorkerSweepStats local;
              for (size_t k = begin; k < end; ++k) {
                EvaluatePair(worker, pair_at(k), scratch, &local);
              }
              Fold(worker, local);
            });
      };
      if (count == store_.size()) {
        sweep([](size_t k) { return k; });
      } else {
        sweep([this](size_t k) { return size_t{live_[k]}; });
      }
      if (iter_ == 1 && sweep_pairs_ < store_.size()) {
        // Copy sweep 1's values into the previous buffer too, so after the
        // swap both buffers hold every constant pair's final value and no
        // later swap, sweep or commit can expose its FSim^0.
        constexpr size_t kCopyGrain = 4096;
        pool_.ParallelForChunked(
            store_.size(), kCopyGrain,
            [&](int /*worker*/, size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) store_.CommitPair(i);
            });
      }
      store_.SwapBuffers();
      ++full_sweeps_;
      last_evaluated_ = count;
    } else {
      FSIM_TRACE_SPAN_ARG("engine.sweep.frontier", frontier_.size());
      // Priority draining: a pair's evaluation cost is dominated by the
      // neighbor refs it walks, so RefSpanTotal is the weight. Exact-mode
      // bit-identity across thread counts is unaffected — evaluations are
      // Jacobi (all reads hit prev_) and the reductions below are
      // order-independent.
      pool_.ParallelForFrontier(
          frontier_,
          [this](uint32_t i) {
            return static_cast<float>(store_.RefSpanTotal(i));
          },
          iterate_grain,
          [&](int worker, std::span<const uint32_t> ids) {
            MatchingScratch* scratch = &scratch_[worker];
            WorkerSweepStats local;
            for (uint32_t i : ids) EvaluatePair(worker, i, scratch, &local);
            Fold(worker, local);
          });
      // Selective forward copy, after the sweep's last read of prev_
      // (Jacobi semantics: every evaluation above saw the old state).
      constexpr size_t kCommitGrain = 4096;
      FSIM_TRACE_SPAN("engine.commit");
      pool_.ParallelForChunked(
          frontier_.size(), kCommitGrain,
          [&](int /*worker*/, size_t begin, size_t end) {
            for (size_t k = begin; k < end; ++k) {
              store_.CommitPair(frontier_[k]);
            }
          });
      last_evaluated_ = frontier_.size();
    }
    total_evaluated_ += last_evaluated_;
    last_was_full_sweep_ = full;
    double max_delta = 0.0;
    size_t freeze_signal = 0;
    uint64_t dep_bound = 0;
    for (const auto& w : worker_stats_) {
      max_delta = std::max(max_delta, w.max_delta);
      freeze_signal += w.freeze_signal;
      dep_bound += w.dep_bound;
    }
    // Marks from this sweep feed the next frontier; once the signal says a
    // frontier would skip at least active_set_activation_fraction of the
    // pairs, start paying for marking — and never stop, since a sparse
    // sweep's skipped pairs depend on the marks staying complete. Exact
    // mode predicts the frontier by the changed pairs' dependent cover;
    // tolerance mode by the fraction of sub-tolerance deltas.
    can_build_frontier_ = marking_;
    if (mode_ != ActiveSetMode::kOff && !marking_) {
      const double n = static_cast<double>(sweep_pairs_);
      if (mode_ == ActiveSetMode::kExact) {
        marking_ = static_cast<double>(dep_bound) <=
                   (1.0 - config_.active_set_activation_fraction) * n;
      } else {
        // A frontier only beats a full sweep below the density threshold,
        // which needs at least (1 - threshold) · n skippable pairs — so
        // wait for that many sub-tolerance deltas before paying for marks.
        const double needed =
            std::max(config_.active_set_activation_fraction *
                         static_cast<double>(last_evaluated_),
                     (1.0 - config_.frontier_density_threshold) * n);
        marking_ = static_cast<double>(freeze_signal) >= needed;
      }
    }
    return max_delta;
  }

  /// True when active-set scheduling is engaged (mode != kOff and the CSR
  /// neighbor index was materialized).
  bool active() const { return mode_ != ActiveSetMode::kOff; }
  /// Pairs evaluated by the most recent Step: every maintained pair on
  /// the first, the live pairs on later full sweeps, the frontier on
  /// frontier sweeps.
  size_t last_evaluated() const { return last_evaluated_; }
  /// Pairs evaluated across all Steps so far.
  size_t total_evaluated() const { return total_evaluated_; }
  /// Iterations that ran as full sweeps (the first, plus density
  /// fallbacks).
  uint32_t full_sweeps() const { return full_sweeps_; }
  /// Accumulated frontier-construction time.
  double frontier_build_seconds() const { return frontier_build_seconds_; }

 private:
  /// Cache-line-padded per-worker sweep accumulators.
  struct alignas(64) WorkerSweepStats {
    double max_delta = 0.0;
    /// Tolerance mode, while marking is deferred: pairs with
    /// delta <= frontier_tolerance (their outgoing influence is near the
    /// skip threshold, so frontiers are about to shrink).
    size_t freeze_signal = 0;
    /// Exact mode, while marking is deferred: Σ RefSpanTotal over changed
    /// pairs — an upper bound on the next frontier's size. Zero-delta
    /// counts are useless here: a pair whose value sits still can still
    /// have changed inputs, so only a small *dependent cover* predicts a
    /// shrinking frontier.
    uint64_t dep_bound = 0;
  };

  void Fold(int worker, const WorkerSweepStats& local) {
    if (local.max_delta > worker_stats_[worker].max_delta) {
      worker_stats_[worker].max_delta = local.max_delta;
    }
    worker_stats_[worker].freeze_signal += local.freeze_signal;
    worker_stats_[worker].dep_bound += local.dep_bound;
  }

  /// Evaluates pair i, records it, and (once marking is active) marks its
  /// dependents when changed.
  void EvaluatePair(int worker, size_t i, MatchingScratch* scratch,
                    WorkerSweepStats* local) {
    const double value = evaluator_.Evaluate(i, scratch);
    store_.set_curr(i, value);
    const double delta = std::abs(value - store_.prev(i));
    if (delta > local->max_delta) local->max_delta = delta;
    if (mode_ == ActiveSetMode::kExact) {
      if (delta != 0.0) {
        if (marking_) {
          MarkDependents<false>(worker, i, delta);
        } else {
          local->dep_bound += store_.RefSpanTotal(i);
        }
      }
    } else if (mode_ == ActiveSetMode::kTolerance) {
      if (delta <= config_.frontier_tolerance) ++local->freeze_signal;
      if (delta != 0.0 && marking_) MarkDependents<true>(worker, i, delta);
    }
  }

  /// Stamps the pairs whose next evaluation reads pair i: the refs of i's
  /// in-span (their out-direction consumes i) and of i's out-span (their
  /// in-direction does). Pruned-table refs never re-evaluate and are
  /// skipped; a zero-weight direction contributes nothing to any dependent
  /// and is skipped with it.
  template <bool kTolerance>
  void MarkDependents(int worker, size_t i, double delta) {
    const uint32_t epoch = tracker_.epoch();
    // Exact mode stamps the shared atomic array (all writers store the
    // same epoch, so relaxed order suffices); tolerance mode accumulates
    // per-worker influence next to a private stamp.
    uint32_t* stamp = kTolerance ? tracker_.stamps(worker) : nullptr;
    float* inf = kTolerance ? tracker_.influence(worker) : nullptr;
    std::atomic<uint32_t>* shared =
        kTolerance ? nullptr : tracker_.shared_stamps();
    auto mark_span = [&](auto refs, double base, const float* factor) {
      for (const auto& e : refs) {
        const uint32_t r = e.ref;
        if (IsPrunedRef(r)) continue;
        if constexpr (kTolerance) {
          const float x = static_cast<float>(base * factor[r]);
          if (stamp[r] != epoch) {
            stamp[r] = epoch;
            inf[r] = x;
          } else {
            inf[r] += x;
          }
        } else {
          shared[r].store(epoch, std::memory_order_relaxed);
        }
      }
    };
    const double base_out = config_.w_out * delta;
    const double base_in = config_.w_in * delta;
    if (scheme_ == ReverseDepScheme::kSymmetricOut) {
      // Symmetric out-adjacency: the out-span is its own dependent list,
      // and the in-direction (empty sets everywhere) never changes.
      if (config_.w_out > 0.0) {
        if (store_.packed_refs()) {
          mark_span(store_.OutRefsPacked(i), base_out, influence_out_.data());
        } else {
          mark_span(store_.OutRefs(i), base_out, influence_out_.data());
        }
      }
      return;
    }
    if (store_.packed_refs()) {
      if (config_.w_out > 0.0) {
        mark_span(store_.InRefsPacked(i), base_out, influence_out_.data());
      }
      if (config_.w_in > 0.0) {
        mark_span(store_.OutRefsPacked(i), base_in, influence_in_.data());
      }
    } else {
      if (config_.w_out > 0.0) {
        mark_span(store_.InRefs(i), base_out, influence_out_.data());
      }
      if (config_.w_in > 0.0) {
        mark_span(store_.OutRefs(i), base_in, influence_in_.data());
      }
    }
  }

  ThreadPool& pool_;
  PairStore& store_;
  const PairEvaluator& evaluator_;
  const FSimConfig& config_;
  ActiveSetMode mode_;
  ReverseDepScheme scheme_ = ReverseDepScheme::kTranspose;
  /// The store's live pairs (empty without the index).
  std::span<const uint32_t> live_;
  /// Pairs a full sweep after the first evaluates: the live pairs with the
  /// index, every maintained pair without it. The frontier-density and
  /// marking tests measure against it.
  size_t sweep_pairs_;
  /// Dependent marking engaged (see active_set_activation_fraction).
  bool marking_ = false;
  /// The previous sweep marked, so its stamps form a complete frontier.
  bool can_build_frontier_ = false;
  /// The previous sweep evaluated every pair (tolerance-mode carries from
  /// before it are absorbed).
  bool last_was_full_sweep_ = false;
  FrontierTracker tracker_;
  std::vector<uint32_t> frontier_;
  std::vector<float> influence_out_;  // kTolerance: per-pair c/Ωχ factors
  std::vector<float> influence_in_;
  std::vector<MatchingScratch> scratch_;
  std::vector<WorkerSweepStats> worker_stats_;
  uint32_t iter_ = 0;
  uint32_t full_sweeps_ = 0;
  size_t last_evaluated_ = 0;
  size_t total_evaluated_ = 0;
  double frontier_build_seconds_ = 0.0;
};

}  // namespace fsim

#endif  // FSIM_CORE_PAIR_EVALUATOR_H_
