// google-benchmark end-to-end timings of ComputeFSim per variant and
// optimization setting on the Yeast analog (the smallest Table 4 dataset) —
// the per-iteration engine cost behind Figures 7 and 8. The main()
// additionally times the build/iterate phases per variant with the
// pair-graph CSR neighbor index enabled vs the hash-lookup fallback and
// writes BENCH_fsim.json for the perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dense_engine.h"
#include "core/fsim_engine.h"
#include "datasets/dataset_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsim {
namespace {

const Graph& Yeast() {
  static const Graph g = MakeDatasetByName("yeast");
  return g;
}

FSimConfig BaseConfig(SimVariant variant) {
  FSimConfig config;
  config.variant = variant;
  config.w_out = 0.4;
  config.w_in = 0.4;
  config.label_sim = LabelSimKind::kJaroWinkler;
  config.epsilon = 0.01;
  return config;
}

void BM_FSimVariant(benchmark::State& state) {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(static_cast<SimVariant>(state.range(0)));
  config.theta = 1.0;
  for (auto _ : state) {
    auto scores = ComputeFSim(g, g, config);
    benchmark::DoNotOptimize(scores.ok());
  }
}
BENCHMARK(BM_FSimVariant)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->ArgName("variant")
    ->Unit(benchmark::kMillisecond);

void BM_FSimOptimization(benchmark::State& state) {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(SimVariant::kBijective);
  config.theta = state.range(0) == 0 ? 0.0 : 1.0;
  config.upper_bound = state.range(1) != 0;
  for (auto _ : state) {
    auto scores = ComputeFSim(g, g, config);
    benchmark::DoNotOptimize(scores.ok());
  }
}
BENCHMARK(BM_FSimOptimization)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"theta1", "ub"})
    ->Unit(benchmark::kMillisecond);

void BM_FSimMatchingAlgo(benchmark::State& state) {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(SimVariant::kBijective);
  config.theta = 1.0;
  config.matching = state.range(0) == 0 ? MatchingAlgo::kGreedy
                                        : MatchingAlgo::kHungarian;
  for (auto _ : state) {
    auto scores = ComputeFSim(g, g, config);
    benchmark::DoNotOptimize(scores.ok());
  }
}
BENCHMARK(BM_FSimMatchingAlgo)
    ->Arg(0)->Arg(1)
    ->ArgName("hungarian")
    ->Unit(benchmark::kMillisecond);

/// Re-validates the PR 1–5 tuning constants under multicore contention at
/// `num_threads` workers (the sweep's max) and renders the measurements as
/// the "tuning" JSON section of BENCH_fsim.json. Each knob is swept on the
/// yeast θ=1 FSim_dp run around its shipped default; "chosen" records the
/// default so a future PR that retunes leaves an audit trail. The dense
/// 8×256 v-tile is timed at 1 vs N threads (tile shape is compile-time, so
/// the check is that the tiled kernel still scales rather than a re-sweep).
std::string RunTuningSweep(int num_threads) {
  const Graph& g = Yeast();
  std::string out = "{\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "    \"num_threads\": %d,\n", num_threads);
  out += buf;

  FSimConfig base = BaseConfig(SimVariant::kDegreePreserving);
  base.theta = 1.0;
  base.neighbor_index_budget_bytes = 1ULL << 30;
  base.num_threads = num_threads;
  auto timed_iterate = [&](const FSimConfig& config) {
    auto scores = ComputeFSim(g, g, config);
    if (!scores.ok()) {
      std::fprintf(stderr, "fatal: tuning-sweep run failed\n");
      std::abort();
    }
    return scores->stats().iterate_seconds;
  };

  std::printf("\ntuning sweep (dp, theta=1, t=%d)\n", num_threads);
  out += "    \"iterate_grain\": {";
  for (size_t grain : {size_t{16}, size_t{64}, size_t{256}}) {
    FSimConfig config = base;
    config.iterate_grain = grain;
    const double s = timed_iterate(config);
    std::snprintf(buf, sizeof(buf), "%s\"%zu\": %.6f",
                  grain == 16 ? "" : ", ", grain, s);
    out += buf;
    std::printf("  iterate_grain=%-4zu iterate=%s\n", grain,
                bench::FormatSeconds(s).c_str());
  }
  std::snprintf(buf, sizeof(buf), ", \"chosen\": %zu},\n",
                FSimConfig().iterate_grain);
  out += buf;

  out += "    \"frontier_density_threshold\": {";
  for (double density : {0.25, 0.5, 0.75}) {
    FSimConfig config = base;
    config.active_set = ActiveSetMode::kTolerance;
    config.frontier_tolerance = config.epsilon / 10.0;
    config.frontier_density_threshold = density;
    const double s = timed_iterate(config);
    std::snprintf(buf, sizeof(buf), "%s\"%.2f\": %.6f",
                  density == 0.25 ? "" : ", ", density, s);
    out += buf;
    std::printf("  frontier_density_threshold=%.2f iterate=%s\n", density,
                bench::FormatSeconds(s).c_str());
  }
  std::snprintf(buf, sizeof(buf), ", \"chosen\": %.2f},\n",
                FSimConfig().frontier_density_threshold);
  out += buf;

  out += "    \"active_set_activation_fraction\": {";
  for (double fraction : {0.0, 0.125, 0.5}) {
    FSimConfig config = base;
    config.active_set_activation_fraction = fraction;
    const double s = timed_iterate(config);
    std::snprintf(buf, sizeof(buf), "%s\"%.3f\": %.6f",
                  fraction == 0.0 ? "" : ", ", fraction, s);
    out += buf;
    std::printf("  active_set_activation_fraction=%.3f iterate=%s\n",
                fraction, bench::FormatSeconds(s).c_str());
  }
  std::snprintf(buf, sizeof(buf), ", \"chosen\": %.3f},\n",
                FSimConfig().active_set_activation_fraction);
  out += buf;

  // Dense 8×256 v-tile at 1 vs N threads (ComputeFSimDense inherits the
  // pool through config.num_threads).
  double dense_s[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    FSimConfig config = BaseConfig(SimVariant::kDegreePreserving);
    config.theta = 1.0;
    config.neighbor_index_budget_bytes = 1ULL << 30;
    config.num_threads = pass == 0 ? 1 : num_threads;
    auto dense = ComputeFSimDense(g, g, config);
    if (!dense.ok()) {
      std::fprintf(stderr, "fatal: tuning-sweep dense run failed\n");
      std::abort();
    }
    dense_s[pass] = dense->stats().iterate_seconds;
  }
  std::snprintf(buf, sizeof(buf),
                "    \"dense_vtile_8x256\": {\"t1\": %.6f, \"t%d\": %.6f}\n",
                dense_s[0], num_threads, dense_s[1]);
  out += buf;
  std::printf("  dense v-tile: t1=%s t%d=%s\n",
              bench::FormatSeconds(dense_s[0]).c_str(), num_threads,
              bench::FormatSeconds(dense_s[1]).c_str());
  out += "  }";
  return out;
}

/// Guard: the trace layer is compiled into every engine phase, so its
/// disarmed cost must stay invisible. Measures (1) the unit cost of a
/// disarmed FSIM_TRACE_SPAN (one relaxed atomic load + a dead store),
/// (2) how many spans a yeast θ=1 FSim_dp solve actually creates (armed
/// run, counting ring events + drops), and (3) the disarmed iterate time
/// itself, then bounds overhead as span_cost x span_count / iterate_ns.
/// Aborts above 2%; the measurement lands in BENCH_fsim.json under
/// "trace_overhead" so the history keeps the trajectory.
std::string RunTraceOverheadGuard() {
  const Graph& g = Yeast();
  FSimConfig config = BaseConfig(SimVariant::kDegreePreserving);
  config.theta = 1.0;
  config.neighbor_index_budget_bytes = 1ULL << 30;

  constexpr size_t kSpans = 4'000'000;
  const uint64_t unit_start = obs::MonotonicNanos();
  for (size_t i = 0; i < kSpans; ++i) {
    FSIM_TRACE_SPAN("bench.disarmed");
  }
  const uint64_t unit_stop = obs::MonotonicNanos();
  const double span_ns =
      static_cast<double>(unit_stop - unit_start) / static_cast<double>(kSpans);

  obs::ArmTracing();
  auto armed = ComputeFSim(g, g, config);
  obs::DisarmTracing();
  if (!armed.ok()) {
    std::fprintf(stderr, "fatal: armed trace-overhead run failed\n");
    std::abort();
  }
  const uint64_t span_count = obs::TraceEventCount() + obs::TraceDroppedCount();

  auto disarmed = ComputeFSim(g, g, config);
  if (!disarmed.ok()) {
    std::fprintf(stderr, "fatal: disarmed trace-overhead run failed\n");
    std::abort();
  }
  const double iterate_ns = disarmed->stats().iterate_seconds * 1e9;
  const double overhead =
      span_ns * static_cast<double>(span_count) / iterate_ns;

  std::printf(
      "\ntrace overhead (dp, theta=1, disarmed): %.2fns/span x %llu spans "
      "= %.4f%% of iterate (bound: <2%%)\n",
      span_ns, static_cast<unsigned long long>(span_count), overhead * 100.0);
  if (overhead >= 0.02) {
    std::fprintf(stderr,
                 "fatal: disarmed tracing overhead %.4f%% exceeds the 2%% "
                 "budget\n",
                 overhead * 100.0);
    std::abort();
  }

  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"span_ns\": %.4f, \"span_count\": %llu, "
                "\"iterate_s\": %.6f, \"overhead_fraction\": %.6f}",
                span_ns, static_cast<unsigned long long>(span_count),
                disarmed->stats().iterate_seconds, overhead);
  return buf;
}

/// Phase-timing comparison per χ variant, written to BENCH_fsim.json:
///  * "indexed"   — the default engine (CSR index + exact active set),
///  * "fullsweep" — active set off: full sweeps over the index, the first
///                  over every pair and later ones over the live pairs
///                  (the baseline the active-set speedup is measured
///                  against),
///  * "tol"       — tolerance-mode active set (frontier_tolerance = ε/10,
///                  error bound tol·(1+w)/(1-w) = 0.9·ε — the frontier
///                  slack stays below the termination tolerance itself),
///  * "fallback"  — hash-lookup path (no index, hence full sweeps).
/// indexed/fullsweep/fallback are cross-checked bit-identical; tol is
/// cross-checked against its documented error bound plus the termination
/// residual slack 2·ε·w/(1-w) (the two runs may stop at different sweeps).
void RunPhaseTimings() {
  const Graph& g = Yeast();
  bench::PhaseTimingsJson json;
  std::printf(
      "\nvariant  path       build      iterate    vs fullsweep  frozen\n");
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    FSimConfig config = BaseConfig(variant);
    config.theta = 1.0;
    const double w = config.w_out + config.w_in;

    config.neighbor_index_budget_bytes = 1ULL << 30;
    auto indexed = ComputeFSim(g, g, config);
    config.active_set = ActiveSetMode::kOff;
    auto fullsweep = ComputeFSim(g, g, config);
    config.active_set = ActiveSetMode::kTolerance;
    config.frontier_tolerance = config.epsilon / 10.0;
    auto tol = ComputeFSim(g, g, config);
    config.active_set = ActiveSetMode::kExact;
    config.neighbor_index_budget_bytes = 0;
    auto fallback = ComputeFSim(g, g, config);
    if (!indexed.ok() || !fullsweep.ok() || !tol.ok() || !fallback.ok()) {
      std::fprintf(stderr, "fatal: phase-timing run failed\n");
      std::abort();
    }
    auto max_diff_vs_fallback = [&](const FSimScores& scores) {
      double max_diff = 0.0;
      for (size_t i = 0; i < scores.values().size(); ++i) {
        max_diff = std::max(max_diff, std::abs(scores.values()[i] -
                                               fallback->values()[i]));
      }
      return max_diff;
    };
    auto differs_from_fallback = [&](const FSimScores& scores) {
      return scores.keys() != fallback->keys() ||
             scores.values() != fallback->values() ||
             scores.stats().iterations != fallback->stats().iterations;
    };
    if (!indexed->stats().used_neighbor_index ||
        differs_from_fallback(*indexed) || differs_from_fallback(*fullsweep)) {
      std::fprintf(stderr,
                   "fatal: indexed/fallback not bit-identical (indexed=%d "
                   "diff=%g, fullsweep diff=%g)\n",
                   indexed->stats().used_neighbor_index,
                   max_diff_vs_fallback(*indexed),
                   max_diff_vs_fallback(*fullsweep));
      std::abort();
    }
    const double tol_bound =
        config.frontier_tolerance * (1.0 + w) / (1.0 - w) +
        2.0 * config.epsilon * w / (1.0 - w);
    const double tol_diff = max_diff_vs_fallback(*tol);
    if (tol_diff > tol_bound) {
      std::fprintf(stderr, "fatal: tolerance run outside bound (%g > %g)\n",
                   tol_diff, tol_bound);
      std::abort();
    }

    const char* name = SimVariantName(variant);
    json.Add(std::string(name) + "/indexed", indexed->stats());
    json.Add(std::string(name) + "/fullsweep", fullsweep->stats());
    json.Add(std::string(name) + "/tol", tol->stats());
    json.Add(std::string(name) + "/fallback", fallback->stats());
    auto row = [&](const char* path, const FSimStats& s) {
      std::printf("%-8s %-10s %-10s %-10s %.2fx         %.2f\n", name, path,
                  bench::FormatSeconds(s.build_seconds).c_str(),
                  bench::FormatSeconds(s.iterate_seconds).c_str(),
                  fullsweep->stats().iterate_seconds / s.iterate_seconds,
                  s.frozen_fraction);
    };
    row("indexed", indexed->stats());
    row("fullsweep", fullsweep->stats());
    row("tol", tol->stats());
    row("fallback", fallback->stats());
    std::printf("%-8s tol frontier:", name);
    for (size_t a : tol->stats().active_pairs_history) {
      std::printf(" %zu", a);
    }
    std::printf("\n");
  }
  // Dense engine: label-class index (core/dense_index.h) vs the per-visit
  // lookup fallback on the yeast-scale labeled config, cross-checked over
  // the full |V|² matrix. Recorded under the "dense" section.
  std::printf("\ndense    path      build      iterate    speedup\n");
  for (SimVariant variant :
       {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
        SimVariant::kBijective}) {
    FSimConfig config = BaseConfig(variant);
    config.theta = 1.0;

    config.neighbor_index_budget_bytes = 1ULL << 30;
    auto indexed = ComputeFSimDense(g, g, config);
    config.neighbor_index_budget_bytes = 0;
    auto fallback = ComputeFSimDense(g, g, config);
    if (!indexed.ok() || !fallback.ok()) {
      std::fprintf(stderr, "fatal: dense phase-timing run failed\n");
      std::abort();
    }
    double max_diff = 0.0;
    for (size_t i = 0; i < indexed->values().size(); ++i) {
      max_diff = std::max(max_diff, std::abs(indexed->values()[i] -
                                             fallback->values()[i]));
    }
    if (!indexed->stats().used_neighbor_index || max_diff > 1e-12) {
      std::fprintf(
          stderr,
          "fatal: dense indexed/fallback mismatch (indexed=%d diff=%g)\n",
          indexed->stats().used_neighbor_index, max_diff);
      std::abort();
    }

    const char* name = SimVariantName(variant);
    json.AddDense(std::string(name) + "/indexed", indexed->stats());
    json.AddDense(std::string(name) + "/fallback", fallback->stats());
    std::printf("%-8s indexed   %-10s %-10s %.2fx\n", name,
                bench::FormatSeconds(indexed->stats().build_seconds).c_str(),
                bench::FormatSeconds(indexed->stats().iterate_seconds).c_str(),
                fallback->stats().iterate_seconds /
                    indexed->stats().iterate_seconds);
    std::printf("%-8s fallback  %-10s %-10s\n", name,
                bench::FormatSeconds(fallback->stats().build_seconds).c_str(),
                bench::FormatSeconds(fallback->stats().iterate_seconds).c_str());
  }

  // Thread-count sweep: the indexed (exact active set) and tolerance paths
  // at every BenchThreadCounts() count > 1. The t=1 records above keep
  // their unsuffixed names so the perf-gate history stays continuous;
  // multi-thread runs get distinct "/tN" names and record num_threads so
  // the gate never compares across thread counts. Exact-mode results are
  // cross-checked bit-identical to the single-thread run (the scheduler's
  // determinism contract); tolerance mode re-checks its error bound.
  const std::vector<int> thread_counts = bench::BenchThreadCounts();
  if (thread_counts.size() > 1) {
    std::printf("\nvariant  path     threads  iterate    vs t=1\n");
    for (SimVariant variant :
         {SimVariant::kSimple, SimVariant::kDegreePreserving, SimVariant::kBi,
          SimVariant::kBijective}) {
      FSimConfig config = BaseConfig(variant);
      config.theta = 1.0;
      config.neighbor_index_budget_bytes = 1ULL << 30;
      const double w = config.w_out + config.w_in;
      auto base_indexed = ComputeFSim(g, g, config);
      config.active_set = ActiveSetMode::kTolerance;
      config.frontier_tolerance = config.epsilon / 10.0;
      auto base_tol = ComputeFSim(g, g, config);
      if (!base_indexed.ok() || !base_tol.ok()) {
        std::fprintf(stderr, "fatal: thread-sweep baseline failed\n");
        std::abort();
      }
      const char* name = SimVariantName(variant);
      for (int t : thread_counts) {
        if (t <= 1) continue;
        config.num_threads = t;
        config.active_set = ActiveSetMode::kExact;
        auto indexed = ComputeFSim(g, g, config);
        config.active_set = ActiveSetMode::kTolerance;
        auto tol = ComputeFSim(g, g, config);
        if (!indexed.ok() || !tol.ok()) {
          std::fprintf(stderr, "fatal: thread-sweep run failed (t=%d)\n", t);
          std::abort();
        }
        for (size_t i = 0; i < indexed->values().size(); ++i) {
          if (indexed->values()[i] != base_indexed->values()[i]) {
            std::fprintf(stderr,
                         "fatal: t=%d exact run not bit-identical to t=1\n",
                         t);
            std::abort();
          }
        }
        const double tol_bound =
            config.frontier_tolerance * (1.0 + w) / (1.0 - w) +
            2.0 * config.epsilon * w / (1.0 - w);
        double tol_diff = 0.0;
        for (size_t i = 0; i < tol->values().size(); ++i) {
          tol_diff = std::max(tol_diff, std::abs(tol->values()[i] -
                                                 base_indexed->values()[i]));
        }
        if (tol_diff > tol_bound) {
          std::fprintf(stderr,
                       "fatal: t=%d tolerance run outside bound (%g > %g)\n",
                       t, tol_diff, tol_bound);
          std::abort();
        }
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "/t%d", t);
        json.Add(std::string(name) + "/indexed" + suffix, indexed->stats(), t);
        json.Add(std::string(name) + "/tol" + suffix, tol->stats(), t);
        std::printf("%-8s indexed  %-8d %-10s %.2fx\n", name, t,
                    bench::FormatSeconds(indexed->stats().iterate_seconds)
                        .c_str(),
                    base_indexed->stats().iterate_seconds /
                        indexed->stats().iterate_seconds);
        std::printf("%-8s tol      %-8d %-10s %.2fx\n", name, t,
                    bench::FormatSeconds(tol->stats().iterate_seconds).c_str(),
                    base_tol->stats().iterate_seconds /
                        tol->stats().iterate_seconds);
      }
    }
    json.SetTuningJson(RunTuningSweep(thread_counts.back()));
  }
  json.AddRawSection("trace_overhead", RunTraceOverheadGuard());

  if (!json.WriteFile("BENCH_fsim.json")) {
    std::fprintf(stderr, "fatal: cannot write BENCH_fsim.json\n");
    std::abort();
  }
  std::printf("\nwrote BENCH_fsim.json\n");
}

}  // namespace
}  // namespace fsim

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  fsim::RunPhaseTimings();
  return 0;
}
