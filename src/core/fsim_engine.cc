#include "core/fsim_engine.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/pair_evaluator.h"
#include "core/pair_store.h"
#include "obs/trace.h"

namespace fsim {

Status ValidateFSimConfig(const Graph& g1, const Graph& g2,
                          const FSimConfig& config) {
  if (g1.dict() != g2.dict()) {
    return Status::InvalidArgument(
        "graphs must share one LabelDict (build them from a shared "
        "dictionary)");
  }
  if (config.w_out < 0.0 || config.w_in < 0.0 ||
      config.w_out + config.w_in >= 1.0) {
    return Status::InvalidArgument(StrFormat(
        "weights must satisfy 0 <= w+, 0 <= w-, w+ + w- < 1 (got %.3f, %.3f)",
        config.w_out, config.w_in));
  }
  if (config.theta < 0.0 || config.theta > 1.0) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  if (config.alpha < 0.0 || config.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  if (config.beta < 0.0 || config.beta > 1.0) {
    return Status::InvalidArgument("beta must be in [0, 1]");
  }
  if (config.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (config.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (config.active_set == ActiveSetMode::kTolerance &&
      config.frontier_tolerance <= 0.0) {
    return Status::InvalidArgument(
        "tolerance-mode active-set iteration needs a positive "
        "frontier_tolerance");
  }
  if (config.frontier_density_threshold < 0.0 ||
      config.frontier_density_threshold > 1.0) {
    return Status::InvalidArgument(
        "frontier_density_threshold must be in [0, 1]");
  }
  if (config.active_set_activation_fraction < 0.0 ||
      config.active_set_activation_fraction > 1.0) {
    return Status::InvalidArgument(
        "active_set_activation_fraction must be in [0, 1]");
  }
  if (config.iterate_grain == 0) {
    return Status::InvalidArgument("iterate_grain must be >= 1");
  }
  if (config.pin_diagonal && &g1 != &g2 && g1.NumNodes() != g2.NumNodes()) {
    return Status::InvalidArgument(
        "pin_diagonal requires a self-similarity run");
  }
  return Status::OK();
}

Result<FSimScores> ComputeFSim(const Graph& g1, const Graph& g2,
                               const FSimConfig& config) {
  FSIM_RETURN_NOT_OK(ValidateFSimConfig(g1, g2, config));

  ThreadPool pool(config.num_threads);
  Timer build_timer;
  obs::TraceSpan init_span("engine.init");
  LabelSimilarityCache lsim(*g1.dict(), config.label_sim);
  FSIM_ASSIGN_OR_RETURN(PairStore store,
                        PairStore::Build(g1, g2, config, lsim,
                                         /*build_neighbor_index=*/true,
                                         &pool));

  FSimStats stats;
  stats.theta_candidates = store.info().theta_candidates;
  stats.maintained_pairs = store.info().kept;
  stats.pruned_pairs = store.info().pruned;
  stats.used_neighbor_index = store.has_neighbor_index();
  stats.neighbor_index_bytes =
      store.has_neighbor_index() ? store.NeighborIndexBytes() : 0;
  stats.packed_neighbor_refs =
      store.has_neighbor_index() && store.packed_refs();
  stats.neighbor_index_peak_staging_bytes = store.info().peak_staging_bytes;
  stats.neighbor_index_bounded_build = store.info().bounded_staging_build;
  stats.build_seconds = build_timer.Seconds();
  init_span.End();

  const uint32_t max_iters = FSimIterationBound(config);
  const PairEvaluator evaluator(g1, g2, config, lsim, store);

  Timer iterate_timer;
  ActiveSetDriver driver(pool, store, evaluator, g1, g2, config);
  stats.active_set = driver.active();
  // Pre-reserve the iteration-indexed telemetry: the hard bound is known up
  // front, so the hot loop never reallocates mid-iteration.
  if (config.record_delta_history) stats.delta_history.reserve(max_iters);
  stats.active_pairs_history.reserve(max_iters);

  for (uint32_t iter = 1; iter <= max_iters; ++iter) {
    FSIM_TRACE_SPAN_ARG("engine.iter", iter);
    const double max_delta = driver.Step();
    stats.iterations = iter;
    stats.final_delta = max_delta;
    if (config.record_delta_history) stats.delta_history.push_back(max_delta);
    stats.active_pairs_history.push_back(driver.last_evaluated());
    if (max_delta < config.epsilon) {
      stats.converged = true;
      break;
    }
  }
  stats.iterate_seconds = iterate_timer.Seconds();
  stats.frontier_build_seconds = driver.frontier_build_seconds();
  stats.full_sweep_iterations = driver.full_sweeps();
  if (stats.iterations > 0 && store.size() > 0) {
    stats.frozen_fraction =
        1.0 - static_cast<double>(driver.total_evaluated()) /
                  (static_cast<double>(stats.iterations) *
                   static_cast<double>(store.size()));
  }

  return FSimScores(store.TakeKeys(), store.TakeScores(), store.TakeIndex(),
                    std::move(stats));
}

Result<FSimScores> ComputeFSimSelf(const Graph& g, const FSimConfig& config) {
  return ComputeFSim(g, g, config);
}

}  // namespace fsim
