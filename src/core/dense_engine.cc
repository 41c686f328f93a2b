#include "core/dense_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/dense_index.h"
#include "core/fsim_engine.h"
#include "core/init_value.h"
#include "core/operators.h"
#include "obs/trace.h"

namespace fsim {

namespace {

struct alignas(64) WorkerDelta {
  double value = 0.0;
};

/// Rows per parallel chunk. A chunk is also the tiling unit: all rows of a
/// chunk walk one v-tile before advancing, so the tile's N±(v) column sets
/// stay cache-hot across the chunk's u's.
constexpr size_t kDenseRowGrain = 8;

/// v-tile width of the indexed iterate loop. 256 columns x 8 rows of
/// `curr` plus the tile's prev-row slices fit comfortably in L2 while
/// keeping the tile loop overhead negligible.
constexpr size_t kDenseVTile = 256;

}  // namespace

std::vector<std::pair<NodeId, double>> DenseFSimScores::TopK(NodeId u,
                                                             size_t k) const {
  FSIM_DCHECK(u < n1_);
  std::vector<std::pair<NodeId, double>> row;
  row.reserve(n2_);
  const double* base = values_.data() + static_cast<size_t>(u) * n2_;
  for (NodeId v = 0; v < n2_; ++v) row.emplace_back(v, base[v]);
  const size_t take = std::min(k, row.size());
  std::partial_sort(row.begin(), row.begin() + take, row.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  row.resize(take);
  return row;
}

Result<DenseFSimScores> ComputeFSimDense(const Graph& g1, const Graph& g2,
                                         const FSimConfig& config) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));
  if (config.upper_bound) {
    return Status::InvalidArgument(
        "dense mode does not support upper-bound updating (it is the "
        "unpruned ablation baseline); use ComputeFSim");
  }
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  const uint64_t total = static_cast<uint64_t>(n1) * n2;
  if (total > config.pair_limit) {
    return Status::InvalidArgument(
        StrFormat("dense matrix of %llu pairs exceeds pair_limit %llu",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(config.pair_limit)));
  }

  Timer build_timer;
  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  ThreadPool pool(config.num_threads);

  // Label-class index (core/dense_index.h): compatibility bitsets, hoisted
  // label terms and class-grouped adjacency. Budget-gated; nullopt runs the
  // per-visit lookup fallback below with identical scores.
  const std::optional<DenseIndex> index =
      DenseIndex::Build(g1, g2, config, lsim);

  const OperatorConfig op = config.operators();
  const double label_weight = 1.0 - config.w_out - config.w_in;
  const uint32_t max_iters = FSimIterationBound(config);
  const uint32_t num_threads = static_cast<uint32_t>(config.num_threads);
  const bool use_out = config.w_out > 0.0;
  const bool use_in = config.w_in > 0.0;

  FSimStats stats;
  std::vector<double> prev(total);
  std::vector<double> curr(total);
  // FSim^0 seeding is O(n1 * n2) and embarrassingly parallel; chunk it over
  // the same pool the iterate loop uses instead of leaving it serial. Each
  // InitKind is one flat row loop with values identical to InitValue.
  const size_t num_label_classes = g1.dict()->size();
  std::vector<std::vector<double>> seed_sim_rows(num_threads);
  pool.ParallelForChunked(
      n1, kDenseRowGrain, [&](int worker, size_t begin, size_t end) {
        for (size_t u_index = begin; u_index < end; ++u_index) {
          const NodeId u = static_cast<NodeId>(u_index);
          double* row = prev.data() + u_index * n2;
          switch (config.init) {
            case InitKind::kLabelSim: {
              // L(ℓ(u), ·) per class, then one gather through g2's labels.
              auto& sim_row = seed_sim_rows[worker];
              sim_row.resize(num_label_classes);
              const LabelId lu = g1.Label(u);
              for (size_t c = 0; c < num_label_classes; ++c) {
                sim_row[c] = lsim.Sim(lu, static_cast<LabelId>(c));
              }
              for (size_t v = 0; v < n2; ++v) {
                row[v] = sim_row[g2.Label(static_cast<NodeId>(v))];
              }
              break;
            }
            case InitKind::kIndicatorDiagonal:
              std::fill(row, row + n2, 0.0);
              if (u_index < n2) row[u_index] = 1.0;
              break;
            case InitKind::kDegreeRatio: {
              const double d1 = static_cast<double>(g1.OutDegree(u));
              for (size_t v = 0; v < n2; ++v) {
                const double d2 =
                    static_cast<double>(g2.OutDegree(static_cast<NodeId>(v)));
                row[v] = d1 == 0.0 && d2 == 0.0
                             ? 1.0
                             : std::min(d1, d2) / std::max(d1, d2);
              }
              break;
            }
            case InitKind::kOnes:
              std::fill(row, row + n2, 1.0);
              break;
          }
        }
      });

  stats.theta_candidates = total;
  stats.maintained_pairs = total;
  stats.used_neighbor_index = index.has_value();
  stats.neighbor_index_bytes = index ? index->MemoryBytes() : 0;
  stats.build_seconds = build_timer.Seconds();

  // Fallback score source: previous-iteration value, negative marking
  // label-incompatible pairs that the mapping operators must not use
  // (Remark 2). The dense matrix holds a value for such pairs, but it never
  // flows through Mχ. The indexed path never enumerates them instead.
  auto lookup = [&](NodeId x, NodeId y) -> double {
    if (!lsim.Compatible(g1.Label(x), g2.Label(y), config.theta)) return -1.0;
    return prev[static_cast<size_t>(x) * n2 + y];
  };

  Timer iterate_timer;
  std::vector<MatchingScratch> scratch(num_threads);
  std::vector<WorkerDelta> worker_delta(num_threads);
  // Per-worker cache of the v-tile's grouped views, built once per
  // (chunk, tile) and reused by every u-row of the chunk.
  struct VTileViews {
    std::vector<GroupedNeighborhood> out;
    std::vector<GroupedNeighborhood> in;
    std::vector<double> out_scores;
    std::vector<double> in_scores;
  };
  std::vector<VTileViews> tile_views(num_threads);
  // The iterate loop's per-row combine + max-delta over one v-tile
  // segment, associated as ((w+·out) + (w-·in)) + label term.
  auto combine_tile = [&](const LabelClassTable& table, NodeId u, LabelId lu,
                          size_t vb, size_t tile, const double* out_scores,
                          const double* in_scores, double* chunk_delta) {
    const size_t u_index = u;
    double* out_row = curr.data() + u_index * n2 + vb;
    const double* prev_row = prev.data() + u_index * n2 + vb;
    const double* term_row = table.WeightedLabelTermRow(lu);
    double delta = *chunk_delta;
    for (size_t t = 0; t < tile; ++t) {
      const NodeId v = static_cast<NodeId>(vb + t);
      double value;
      if (config.pin_diagonal && u == v) {
        value = 1.0;
      } else {
        const double o = use_out ? config.w_out * out_scores[t] : 0.0;
        const double in = use_in ? config.w_in * in_scores[t] : 0.0;
        const double term = term_row ? term_row[g2.Label(v)] : 0.0;
        value = (o + in) + term;
      }
      out_row[t] = value;
      delta = std::max(delta, std::abs(value - prev_row[t]));
    }
    *chunk_delta = delta;
  };

  // Indexed chunk body: rows [begin, end) x all v, tiled over v so the
  // tile's N±(v) structures and prev-row slices are reused across the
  // chunk's rows. Visit order per pair is identical either way; only the
  // (u, v) evaluation order changes, which the Jacobi sweep is invariant
  // to. Templated on the mapping kind (dispatched once per chunk) so the
  // per-pair operator inlines switch-free into the tile loop.
  auto evaluate_chunk_indexed = [&]<MappingKind M>(int worker, size_t begin,
                                                   size_t end) {
    const DenseIndex& di = *index;
    const LabelClassTable& table = di.table();
    const ClassCompatView compat = table.view();
    MatchingScratch* worker_scratch = &scratch[worker];
    const double* prev_data = prev.data();
    auto score = [prev_data, n2](NodeId x, NodeId y) -> double {
      return prev_data[static_cast<size_t>(x) * n2 + y];
    };
    double chunk_delta = 0.0;
    VTileViews& views = tile_views[worker];
    for (size_t vb = 0; vb < n2; vb += kDenseVTile) {
      const NodeId v_hi = static_cast<NodeId>(std::min(vb + kDenseVTile, n2));
      const size_t tile = v_hi - vb;
      if (use_out) {
        views.out.resize(tile);
        for (size_t t = 0; t < tile; ++t) {
          views.out[t] = di.Out2(static_cast<NodeId>(vb + t));
        }
      }
      if (use_in) {
        views.in.resize(tile);
        for (size_t t = 0; t < tile; ++t) {
          views.in[t] = di.In2(static_cast<NodeId>(vb + t));
        }
      }
      views.out_scores.resize(tile);
      views.in_scores.resize(tile);
      for (size_t u_index = begin; u_index < end; ++u_index) {
        const NodeId u = static_cast<NodeId>(u_index);
        const LabelId lu = g1.Label(u);
        // One tile-granularity operator call per direction: S1-side state
        // hoists across the tile's v's.
        if (use_out) {
          DirectionScoreGroupedTile<M>(op.omega, config.matching, di.Out1(u),
                                       {views.out.data(), tile}, compat,
                                       score, worker_scratch,
                                       views.out_scores.data());
        }
        if (use_in) {
          DirectionScoreGroupedTile<M>(op.omega, config.matching, di.In1(u),
                                       {views.in.data(), tile}, compat, score,
                                       worker_scratch,
                                       views.in_scores.data());
        }
        combine_tile(table, u, lu, vb, tile, views.out_scores.data(),
                     views.in_scores.data(), &chunk_delta);
      }
    }
    if (chunk_delta > worker_delta[worker].value) {
      worker_delta[worker].value = chunk_delta;
    }
  };

  // Lookup fallback: the seed-era per-visit path, kept verbatim as the
  // reference the indexed path is differentially tested against.
  auto evaluate_chunk_lookup = [&](int worker, size_t begin, size_t end) {
    MatchingScratch* worker_scratch = &scratch[worker];
    double chunk_delta = 0.0;
    for (size_t u_index = begin; u_index < end; ++u_index) {
      const NodeId u = static_cast<NodeId>(u_index);
      double* out_row = curr.data() + u_index * n2;
      for (NodeId v = 0; v < n2; ++v) {
        double value;
        if (config.pin_diagonal && u == v) {
          value = 1.0;
        } else {
          const double out_score =
              DirectionScore(op, config.matching, g1.OutNeighbors(u),
                             g2.OutNeighbors(v), lookup, worker_scratch);
          const double in_score =
              DirectionScore(op, config.matching, g1.InNeighbors(u),
                             g2.InNeighbors(v), lookup, worker_scratch);
          value = config.w_out * out_score + config.w_in * in_score +
                  label_weight *
                      LabelTermValue(config, lsim, g1.Label(u), g2.Label(v));
        }
        out_row[v] = value;
        chunk_delta =
            std::max(chunk_delta, std::abs(value - prev[u_index * n2 + v]));
      }
    }
    if (chunk_delta > worker_delta[worker].value) {
      worker_delta[worker].value = chunk_delta;
    }
  };

  // Pre-reserve so the per-iteration push never reallocates mid-loop.
  if (config.record_delta_history) stats.delta_history.reserve(max_iters);

  for (uint32_t iter = 1; iter <= max_iters; ++iter) {
    FSIM_TRACE_SPAN_ARG("dense.iter", iter);
    for (auto& d : worker_delta) d.value = 0.0;
    // Chunks of u-rows: rows are independent under double buffering, and
    // row granularity amortizes the scheduling cost that per-pair items
    // would pay on the dense matrix.
    pool.ParallelForChunked(
        n1, kDenseRowGrain, [&](int worker, size_t begin, size_t end) {
          if (!index) {
            evaluate_chunk_lookup(worker, begin, end);
            return;
          }
          switch (op.mapping) {
            case MappingKind::kMaxPerRow:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kMaxPerRow>(worker, begin,
                                                                end);
              break;
            case MappingKind::kInjectiveRow:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kInjectiveRow>(worker,
                                                                   begin, end);
              break;
            case MappingKind::kMaxBothSides:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kMaxBothSides>(
                      worker, begin, end);
              break;
            case MappingKind::kInjectiveSym:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kInjectiveSym>(worker,
                                                                   begin, end);
              break;
            case MappingKind::kProduct:
              evaluate_chunk_indexed
                  .template operator()<MappingKind::kProduct>(worker, begin,
                                                              end);
              break;
          }
        });
    double max_delta = 0.0;
    for (const auto& d : worker_delta) max_delta = std::max(max_delta, d.value);
    prev.swap(curr);
    stats.iterations = iter;
    stats.final_delta = max_delta;
    if (config.record_delta_history) stats.delta_history.push_back(max_delta);
    if (max_delta < config.epsilon) {
      stats.converged = true;
      break;
    }
  }
  stats.iterate_seconds = iterate_timer.Seconds();

  return DenseFSimScores(n1, n2, std::move(prev), std::move(stats));
}

}  // namespace fsim
