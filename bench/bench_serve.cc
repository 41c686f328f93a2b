// Serving-layer benchmark (src/serve/): query throughput against a
// published snapshot with 1-8 concurrent reader threads, the top-k
// selection micro-benchmark (full row sort vs row materialize +
// partial_sort vs the bounded-heap FSimScores::TopK vs a copy of the
// snapshot's ranked-row prefix), and refresh-publish latency under a
// synthetic edit stream. Headline numbers are written to BENCH_serve.json so CI can track
// the serving path alongside BENCH_fsim.json / BENCH_incremental.json
// (scripts/append_bench_history.py --serve, gated by
// scripts/check_bench_history.py).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "serve/query.h"
#include "serve/recovery.h"
#include "serve/refresh.h"
#include "serve/snapshot.h"

using namespace fsim;

namespace {

// Wall time of one pair_qps row, started once every reader is running.
constexpr auto kPairQpsWindow = std::chrono::milliseconds(500);
constexpr size_t kTopKCalls = 20'000;
constexpr int kEditBursts = 20;
constexpr int kEditsPerBurst = 8;

struct ServeReport {
  std::string dataset;
  size_t pairs = 0;
  size_t cache_k = 0;
  // Single-pair query throughput (queries/second) by reader-thread count.
  std::vector<std::pair<int, double>> pair_qps;
  // Top-k selection micro-benchmark, microseconds per call.
  double topk_row_full_sort_us = 0.0;
  double topk_row_partial_sort_us = 0.0;
  double topk_heap_select_us = 0.0;
  // FSimSnapshot::TopK: a copy of the ranked-row prefix. Written as
  // "cached_us", the key scripts/append_bench_history.py reads.
  double topk_ranked_us = 0.0;
  // Refresh-publish latency under the synthetic edit stream.
  double median_flush_ms = 0.0;   // drain + apply + publish
  double median_publish_ms = 0.0; // snapshot build + swap only
  size_t publishes = 0;
  // Batch-query throughput (queries/second) via QueryEngine::RunBatch, by
  // pool-worker count (1 = the serial fallback path).
  std::vector<std::pair<int, double>> batch_qps;
  // Refresh flush latency by engine thread count (the wave-parallel
  // propagate path): (threads, median flush ms, median publish ms).
  struct RefreshAtThreads {
    int threads = 1;
    double median_flush_ms = 0.0;
    double median_publish_ms = 0.0;
  };
  std::vector<RefreshAtThreads> refresh_threads;
  // Durability overhead: the same edit stream with a WAL attached — every
  // Submit is a durable (fsync'd) append. Acceptance bound for the WAL
  // work: publish latency must stay within 25% of the WAL-off median.
  double wal_median_flush_ms = 0.0;
  double wal_median_publish_ms = 0.0;
  double wal_median_submit_us = 0.0;  // per-edit durable append cost
  // Closed-loop per-verb query latency quantiles, from the registry's
  // fsim_serve_query_seconds histograms (obs/metrics.h): interval snapshot
  // deltas around a single-reader loop, microseconds. History-gated
  // (lower is better) alongside qps.
  struct VerbLatency {
    std::string verb;  // lowercase JSON key prefix: pair / topk / thresh
    uint64_t count = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };
  std::vector<VerbLatency> latency;
};

/// Runs `calls` closed-loop queries of one kind through engine.Run and
/// returns the latency quantiles of exactly that interval, by differencing
/// registry histogram snapshots around the loop. The max is the histogram's
/// lifetime max (shard maxima are cumulative), which only ever overstates
/// the interval max.
ServeReport::VerbLatency MeasureVerbLatency(const QueryEngine& engine,
                                            NodeId num_nodes,
                                            Query::Kind kind, size_t calls) {
  ServeReport::VerbLatency out;
  const char* label = kind == Query::Kind::kPair
                          ? "PAIR"
                          : (kind == Query::Kind::kTopK ? "TOPK" : "THRESH");
  out.verb = kind == Query::Kind::kPair
                 ? "pair"
                 : (kind == Query::Kind::kTopK ? "topk" : "thresh");
  obs::Histogram* histogram = obs::Registry::Default().FindHistogram(
      QueryEngine::kLatencyFamily, label);
  if (histogram == nullptr) return out;  // engine not constructed yet
  const obs::HistogramSnapshot before = histogram->Snapshot();
  Rng rng(0x1A7E);
  double sink = 0.0;
  Query query;
  query.kind = kind;
  query.k = 10;
  query.tau = 0.5;
  for (size_t i = 0; i < calls; ++i) {
    query.u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    query.v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    auto result = engine.Run(query);
    sink += result.ok() ? result->score : 0.0;
  }
  if (sink < -1.0) std::printf("impossible %f\n", sink);  // defeat DCE
  const obs::HistogramSnapshot delta =
      obs::HistogramSnapshot::Delta(histogram->Snapshot(), before);
  out.count = delta.count;
  out.p50_us = delta.Quantile(0.5) * 1e-3;
  out.p99_us = delta.Quantile(0.99) * 1e-3;
  out.max_us = static_cast<double>(delta.max) * 1e-3;
  return out;
}

/// Replays the synthetic edit-burst stream against a fresh refresh driver
/// whose engine runs `num_threads` workers; returns the median flush and
/// publish latency. Mirrors the main refresh section so the sweep isolates
/// the engine thread count (same seed, same burst shape).
ServeReport::RefreshAtThreads MeasureRefreshAtThreads(const Graph& g,
                                                      FSimConfig config,
                                                      int num_threads) {
  config.num_threads = num_threads;
  SnapshotStore store;
  RefreshPolicy policy;
  policy.max_edits_behind = kEditsPerBurst;
  policy.topk_cache_k = 16;
  IncrementalOptions inc_options;
  inc_options.propagation_tolerance = 1e-6;
  RefreshDriver driver(g, g, config, inc_options, policy, &store);
  Status init = driver.Init();
  if (!init.ok()) {
    std::fprintf(stderr, "fatal: %s\n", init.ToString().c_str());
    std::abort();
  }
  const NodeId num_nodes = static_cast<NodeId>(g.NumNodes());
  Rng rng(0xED17);
  std::vector<double> flush_ms;
  std::vector<double> publish_ms;
  for (int burst = 0; burst < kEditBursts; ++burst) {
    for (int e = 0; e < kEditsPerBurst; ++e) {
      EditOp op;
      op.graph_index = (e % 2) + 1;
      op.from = static_cast<NodeId>(rng.NextBounded(num_nodes));
      op.to = static_cast<NodeId>(rng.NextBounded(num_nodes));
      if (op.from == op.to) continue;
      op.insert = (rng.Next() & 1) != 0;
      if (!driver.Submit(op).ok()) std::abort();
    }
    Timer flush_timer;
    Status st = driver.Flush();
    if (!st.ok()) {
      std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
      std::abort();
    }
    flush_ms.push_back(flush_timer.Seconds() * 1e3);
    publish_ms.push_back(driver.stats().last_publish_seconds * 1e3);
  }
  std::sort(flush_ms.begin(), flush_ms.end());
  std::sort(publish_ms.begin(), publish_ms.end());
  ServeReport::RefreshAtThreads result;
  result.threads = num_threads;
  result.median_flush_ms = flush_ms[flush_ms.size() / 2];
  result.median_publish_ms = publish_ms[publish_ms.size() / 2];
  return result;
}

/// The same edit-burst stream with WAL durability attached: every Submit
/// is a checksummed append + fsync before the ack. Fills the wal_* report
/// fields (median flush/publish ms plus the per-edit durable submit cost).
void MeasureRefreshWithWal(const Graph& g, const FSimConfig& config,
                           ServeReport* report) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "fsim_bench_wal";
  std::error_code ec;
  fs::remove_all(dir, ec);

  SnapshotStore store;
  RefreshPolicy policy;
  policy.max_edits_behind = kEditsPerBurst;
  policy.topk_cache_k = 16;
  IncrementalOptions inc_options;
  inc_options.propagation_tolerance = 1e-6;
  RefreshDriver driver(g, g, config, inc_options, policy, &store);
  DurabilityOptions durability;
  durability.dir = dir.string();
  durability.snapshot_every_edits = 0;  // isolate the WAL cost per edit
  auto recovered = RecoverServeState(durability.dir, g, g);
  if (!recovered.ok() ||
      !driver.EnableDurability(durability, std::move(*recovered)).ok() ||
      !driver.Init().ok()) {
    std::fprintf(stderr, "fatal: WAL bench setup failed\n");
    std::abort();
  }

  const NodeId num_nodes = static_cast<NodeId>(g.NumNodes());
  Rng rng(0xED17);  // same stream as the WAL-off section
  std::vector<double> flush_ms, publish_ms, submit_us;
  for (int burst = 0; burst < kEditBursts; ++burst) {
    for (int e = 0; e < kEditsPerBurst; ++e) {
      EditOp op;
      op.graph_index = (e % 2) + 1;
      op.from = static_cast<NodeId>(rng.NextBounded(num_nodes));
      op.to = static_cast<NodeId>(rng.NextBounded(num_nodes));
      if (op.from == op.to) continue;
      op.insert = (rng.Next() & 1) != 0;
      Timer submit_timer;
      if (!driver.Submit(op).ok()) std::abort();
      submit_us.push_back(submit_timer.Seconds() * 1e6);
    }
    Timer flush_timer;
    if (!driver.Flush().ok()) std::abort();
    flush_ms.push_back(flush_timer.Seconds() * 1e3);
    publish_ms.push_back(driver.stats().last_publish_seconds * 1e3);
  }
  std::sort(flush_ms.begin(), flush_ms.end());
  std::sort(publish_ms.begin(), publish_ms.end());
  std::sort(submit_us.begin(), submit_us.end());
  report->wal_median_flush_ms = flush_ms[flush_ms.size() / 2];
  report->wal_median_publish_ms = publish_ms[publish_ms.size() / 2];
  report->wal_median_submit_us = submit_us[submit_us.size() / 2];
  fs::remove_all(dir, ec);
}

/// RunBatch throughput over a fixed mixed batch (pair-heavy with a top-k
/// tail, matching the protocol's BATCH shape). `pool` == nullptr measures
/// the serial fallback.
double MeasureBatchQps(const SnapshotStore& store, ThreadPool* pool,
                       NodeId num_nodes) {
  constexpr size_t kBatchSize = 4096;
  constexpr int kBatchRounds = 40;
  QueryEngine engine(&store, pool);
  Rng rng(0xBA7C);
  std::vector<Query> queries(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    queries[i].u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (i % 16 == 15) {
      queries[i].kind = Query::Kind::kTopK;
      queries[i].k = 10;
    } else {
      queries[i].kind = Query::Kind::kPair;
      queries[i].v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    }
  }
  double sink = 0.0;
  Timer timer;
  for (int round = 0; round < kBatchRounds; ++round) {
    auto results = engine.RunBatch(queries);
    if (!results.ok()) {
      std::fprintf(stderr, "fatal: %s\n",
                   results.status().ToString().c_str());
      std::abort();
    }
    sink += results->front().score;
  }
  const double seconds = timer.Seconds();
  if (sink < -1.0) std::printf("impossible %f\n", sink);  // defeat DCE
  return static_cast<double>(kBatchSize) * kBatchRounds / seconds;
}

/// The serving-path pair-query loop: pinned single queries through
/// QueryEngine, uniformly random (u, v). The clock starts once every
/// reader has started and stops after kPairQpsWindow, so a row measures
/// reads, not thread start-up.
double MeasurePairQps(const QueryEngine& engine, NodeId num_nodes,
                      int threads) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<double> sink{0.0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x5E7E + static_cast<uint64_t>(t));
      double local = 0.0;
      uint64_t count = 0;
      Query query;
      query.kind = Query::Kind::kPair;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 256; ++i, ++count) {
          query.u = static_cast<NodeId>(rng.NextBounded(num_nodes));
          query.v = static_cast<NodeId>(rng.NextBounded(num_nodes));
          auto result = engine.Run(query);
          local += result.ok() ? result->score : 0.0;
        }
      }
      queries.fetch_add(count);
      sink.store(sink.load() + local);  // keep the loop alive
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  Timer timer;
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(kPairQpsWindow);
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double seconds = timer.Seconds();
  return static_cast<double>(queries.load()) / seconds;
}

/// Reference: materialize the row and fully sort it (the naive top-k).
std::vector<std::pair<NodeId, double>> TopKFullSort(const FSimScores& scores,
                                                    NodeId u, size_t k) {
  auto row = scores.Row(u);
  std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (row.size() > k) row.resize(k);
  return row;
}

/// Reference: materialize the row, partial_sort the prefix (the pre-serving
/// FSimScores::TopK implementation).
std::vector<std::pair<NodeId, double>> TopKPartialSort(
    const FSimScores& scores, NodeId u, size_t k) {
  auto row = scores.Row(u);
  auto cmp = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (row.size() > k) {
    std::partial_sort(row.begin(), row.begin() + static_cast<ptrdiff_t>(k),
                      row.end(), cmp);
    row.resize(k);
  } else {
    std::sort(row.begin(), row.end(), cmp);
  }
  return row;
}

template <typename Fn>
double MeasureTopKMicros(NodeId num_nodes, const Fn& fn) {
  Rng rng(0x70B);
  double sink = 0.0;
  Timer timer;
  for (size_t i = 0; i < kTopKCalls; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    const auto top = fn(u);
    sink += top.empty() ? 0.0 : top.front().second;
  }
  const double us = timer.Seconds() * 1e6 / static_cast<double>(kTopKCalls);
  if (sink < -1.0) std::printf("impossible %f\n", sink);  // defeat DCE
  return us;
}

bool WriteBenchJson(const std::string& path, const ServeReport& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"serve\": {\n");
  std::fprintf(f, "    \"dataset\": \"%s\",\n    \"pairs\": %zu,\n",
               r.dataset.c_str(), r.pairs);
  std::fprintf(f, "    \"cache_k\": %zu,\n", r.cache_k);
  std::fprintf(f, "    \"pair_qps\": {");
  for (size_t i = 0; i < r.pair_qps.size(); ++i) {
    std::fprintf(f, "%s\"threads_%d\": %.0f", i == 0 ? "" : ", ",
                 r.pair_qps[i].first, r.pair_qps[i].second);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "    \"topk\": {\"row_full_sort_us\": %.3f, "
               "\"row_partial_sort_us\": %.3f, \"heap_select_us\": %.3f, "
               "\"cached_us\": %.3f},\n",
               r.topk_row_full_sort_us, r.topk_row_partial_sort_us,
               r.topk_heap_select_us, r.topk_ranked_us);
  std::fprintf(f, "    \"batch_qps\": {");
  for (size_t i = 0; i < r.batch_qps.size(); ++i) {
    std::fprintf(f, "%s\"threads_%d\": %.0f", i == 0 ? "" : ", ",
                 r.batch_qps[i].first, r.batch_qps[i].second);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "    \"latency\": {");
  for (size_t i = 0; i < r.latency.size(); ++i) {
    const auto& v = r.latency[i];
    std::fprintf(f,
                 "%s\"%s_p50_us\": %.3f, \"%s_p99_us\": %.3f, "
                 "\"%s_max_us\": %.3f",
                 i == 0 ? "" : ", ", v.verb.c_str(), v.p50_us,
                 v.verb.c_str(), v.p99_us, v.verb.c_str(), v.max_us);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "    \"refresh\": {\"median_flush_ms\": %.3f, "
               "\"median_publish_ms\": %.3f, \"publishes\": %zu},\n",
               r.median_flush_ms, r.median_publish_ms, r.publishes);
  std::fprintf(f,
               "    \"refresh_wal\": {\"median_flush_ms\": %.3f, "
               "\"median_publish_ms\": %.3f, \"median_submit_us\": %.3f}%s\n",
               r.wal_median_flush_ms, r.wal_median_publish_ms,
               r.wal_median_submit_us, r.refresh_threads.empty() ? "" : ",");
  // The engine-thread refresh sweep; separate "refresh_tN" keys so the
  // t=1 "refresh" history entries above stay comparable across PRs.
  for (size_t i = 0; i < r.refresh_threads.size(); ++i) {
    const auto& rt = r.refresh_threads[i];
    std::fprintf(f,
                 "    \"refresh_t%d\": {\"median_flush_ms\": %.3f, "
                 "\"median_publish_ms\": %.3f, \"num_threads\": %d}%s\n",
                 rt.threads, rt.median_flush_ms, rt.median_publish_ms,
                 rt.threads, i + 1 < r.refresh_threads.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Serving layer: snapshot query throughput, top-k selection, "
      "refresh-publish latency (yeast analog, FSim_bj, theta=1)");

  ServeReport report;
  report.dataset = "yeast";
  const Graph g = MakeDatasetByName("yeast");
  FSimConfig config = bench::PaperDefaults(SimVariant::kBijective);
  config.theta = 1.0;
  config.epsilon = 1e-4;
  config.pair_limit = bench::kBenchPairLimit;

  // One refresh driver owns the solve; its published snapshot is the query
  // substrate for the read-side measurements.
  SnapshotStore store;
  RefreshPolicy policy;
  policy.max_edits_behind = kEditsPerBurst;  // publish once per burst
  policy.topk_cache_k = 16;
  report.cache_k = policy.topk_cache_k;
  IncrementalOptions inc_options;
  inc_options.propagation_tolerance = 1e-6;  // as bench/exp_incremental
  Timer solve_timer;
  RefreshDriver driver(g, g, config, inc_options, policy, &store);
  Status init = driver.Init();
  if (!init.ok()) {
    std::fprintf(stderr, "fatal: %s\n", init.ToString().c_str());
    return 1;
  }
  std::printf("initial solve + publish: %.2fs\n", solve_timer.Seconds());
  const SnapshotPtr snapshot = store.Acquire();
  report.pairs = snapshot->scores().NumPairs();
  const NodeId num_nodes = static_cast<NodeId>(g.NumNodes());
  std::printf("pairs=%zu, rank order %.1f KiB\n", report.pairs,
              static_cast<double>(snapshot->CacheBytes()) / 1024.0);

  // --- Single-pair query throughput, 1-8 reader threads. ---
  QueryEngine engine(&store);
  TablePrinter qps_table({"readers", "queries/s", "us/query"});
  for (int threads : {1, 2, 4, 8}) {
    const double qps = MeasurePairQps(engine, num_nodes, threads);
    report.pair_qps.emplace_back(threads, qps);
    char qps_s[32], us_s[32];
    std::snprintf(qps_s, sizeof(qps_s), "%.2fM", qps / 1e6);
    std::snprintf(us_s, sizeof(us_s), "%.3f", 1e6 / qps * threads);
    qps_table.AddRow({std::to_string(threads), qps_s, us_s});
  }
  qps_table.Print();

  // --- Per-verb closed-loop latency quantiles (single reader). ---
  TablePrinter latency_table({"verb", "calls", "p50", "p99", "max"});
  for (const auto& [kind, calls] :
       {std::pair{Query::Kind::kPair, size_t{200'000}},
        std::pair{Query::Kind::kTopK, size_t{20'000}},
        std::pair{Query::Kind::kThreshold, size_t{20'000}}}) {
    auto verb = MeasureVerbLatency(engine, num_nodes, kind, calls);
    char p50_s[32], p99_s[32], max_s[32];
    std::snprintf(p50_s, sizeof(p50_s), "%.2fus", verb.p50_us);
    std::snprintf(p99_s, sizeof(p99_s), "%.2fus", verb.p99_us);
    std::snprintf(max_s, sizeof(max_s), "%.2fus", verb.max_us);
    latency_table.AddRow({verb.verb, std::to_string(verb.count), p50_s,
                          p99_s, max_s});
    report.latency.push_back(std::move(verb));
  }
  latency_table.Print();

  // --- Top-k selection micro-benchmark (k = 10). ---
  constexpr size_t kK = 10;
  const FSimScores& scores = snapshot->scores();
  report.topk_row_full_sort_us = MeasureTopKMicros(
      num_nodes, [&](NodeId u) { return TopKFullSort(scores, u, kK); });
  report.topk_row_partial_sort_us = MeasureTopKMicros(
      num_nodes, [&](NodeId u) { return TopKPartialSort(scores, u, kK); });
  report.topk_heap_select_us = MeasureTopKMicros(
      num_nodes, [&](NodeId u) { return scores.TopK(u, kK); });
  report.topk_ranked_us = MeasureTopKMicros(
      num_nodes, [&](NodeId u) { return snapshot->TopK(u, kK); });
  std::printf(
      "top-%zu per call: full sort %.2fus, partial sort %.2fus, heap select "
      "%.2fus, snapshot ranked prefix %.2fus\n",
      kK, report.topk_row_full_sort_us, report.topk_row_partial_sort_us,
      report.topk_heap_select_us, report.topk_ranked_us);

  // --- Refresh-publish latency under a synthetic edit stream. ---
  Rng rng(0xED17);
  std::vector<double> flush_ms;
  std::vector<double> publish_ms;
  for (int burst = 0; burst < kEditBursts; ++burst) {
    for (int e = 0; e < kEditsPerBurst; ++e) {
      EditOp op;
      op.graph_index = (e % 2) + 1;
      op.from = static_cast<NodeId>(rng.NextBounded(num_nodes));
      op.to = static_cast<NodeId>(rng.NextBounded(num_nodes));
      if (op.from == op.to) continue;
      op.insert = (rng.Next() & 1) != 0;
      if (!driver.Submit(op).ok()) std::abort();
    }
    Timer flush_timer;
    Status st = driver.Flush();
    if (!st.ok()) {
      std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
      return 1;
    }
    flush_ms.push_back(flush_timer.Seconds() * 1e3);
    publish_ms.push_back(driver.stats().last_publish_seconds * 1e3);
  }
  std::sort(flush_ms.begin(), flush_ms.end());
  std::sort(publish_ms.begin(), publish_ms.end());
  report.median_flush_ms = flush_ms[flush_ms.size() / 2];
  report.median_publish_ms = publish_ms[publish_ms.size() / 2];
  report.publishes = driver.stats().publishes;
  std::printf(
      "refresh: %d bursts x %d edits, median flush %.2fms (publish %.2fms), "
      "%zu publishes, %llu edits applied\n",
      kEditBursts, kEditsPerBurst, report.median_flush_ms,
      report.median_publish_ms, report.publishes,
      static_cast<unsigned long long>(driver.stats().edits_applied));

  // --- Durability overhead: the same stream, WAL-on. ---
  MeasureRefreshWithWal(g, config, &report);
  std::printf(
      "refresh with WAL: median flush %.2fms (publish %.2fms), durable "
      "submit %.1fus/edit — publish overhead %+.1f%% vs WAL-off (bound: "
      "<25%%)\n",
      report.wal_median_flush_ms, report.wal_median_publish_ms,
      report.wal_median_submit_us,
      report.median_publish_ms > 0.0
          ? (report.wal_median_publish_ms / report.median_publish_ms - 1.0) *
                100.0
          : 0.0);

  // --- Batch-query fan-out: RunBatch serial vs pooled. ---
  const std::vector<int> thread_counts = bench::BenchThreadCounts();
  TablePrinter batch_table({"pool workers", "batch queries/s"});
  for (int t : thread_counts) {
    std::unique_ptr<ThreadPool> pool;
    if (t > 1) pool = std::make_unique<ThreadPool>(t);
    const double qps = MeasureBatchQps(store, pool.get(), num_nodes);
    report.batch_qps.emplace_back(t, qps);
    char qps_s[32];
    std::snprintf(qps_s, sizeof(qps_s), "%.2fM", qps / 1e6);
    batch_table.AddRow({std::to_string(t), qps_s});
  }
  batch_table.Print();

  // --- Refresh flush latency vs engine thread count (wave-parallel
  // propagate; t=1 is the serial chaotic engine, already reported above
  // as the history-tracked "refresh" section). ---
  if (thread_counts.size() > 1) {
    TablePrinter refresh_table({"engine threads", "med flush", "med publish"});
    for (int t : thread_counts) {
      if (t <= 1) continue;
      const auto rt = MeasureRefreshAtThreads(g, config, t);
      report.refresh_threads.push_back(rt);
      char flush_s[32], publish_s[32];
      std::snprintf(flush_s, sizeof(flush_s), "%.2fms", rt.median_flush_ms);
      std::snprintf(publish_s, sizeof(publish_s), "%.2fms",
                    rt.median_publish_ms);
      refresh_table.AddRow({std::to_string(t), flush_s, publish_s});
    }
    refresh_table.Print();
  }

  if (!WriteBenchJson("BENCH_serve.json", report)) {
    std::fprintf(stderr, "warning: could not write BENCH_serve.json\n");
  } else {
    std::printf("wrote BENCH_serve.json\n");
  }
  std::printf(
      "expected: single-pair lookups are one snapshot acquire + one hash "
      "probe (>=100k/s is the serving floor; typical is millions/s), the "
      "snapshot answers top-k by copying a ranked-row prefix, and publish "
      "cost is the score-values copy plus the rows whose values changed "
      "(unchanged rows copy their carried rank order; changed rows merge "
      "their sorted changes into it).\n");
  return 0;
}
