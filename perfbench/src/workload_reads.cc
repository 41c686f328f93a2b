// The reads phase: queries under publish. A service over the gp analog
// shape (bj, θ=1), booted during set-up. Args::readers (one or two)
// closed-loop reader threads call QueryEngine::Run with a seeded mix
// (serve/query.h kinds) while one publisher thread republishes a fresh copy
// of the scores a fixed number of times, paced by reader progress. The
// engine does no work here: snapshot acquire, query answer, the top-k cache
// and snapshot retire do.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/query.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 3;
// The gp analog at 0.85 of its registry node and edge counts: ~260k
// candidate pairs, in the middle of one capacity step of the pair maps
// (load factor <= 0.7, so 2^18 slots hold up to ~183k pairs and 2^19 up to
// ~367k). At the registry size the pair count (351k-371k) straddles the
// 367k step, and the peak RSS of the run was 94 or 121 MiB depending on
// the seed.
constexpr double kGraphScale = 0.85;
constexpr size_t kPublishes = 20;
static_assert(kPublishes % kCycles == 0, "publishes split evenly by slice");
// Readers report progress to the publish pacer (and check the clock) once
// per batch, keeping both off the per-query path.
constexpr uint64_t kProgressBatch = 1024;
// Every this many queries a reader holds the current snapshot across one
// PAIR query and checks the answer against it.
constexpr uint64_t kCheckEvery = 4096;
constexpr double kCalibrateSeconds = 0.3;

fsim::FSimConfig ReadsConfig(int threads) {
  fsim::FSimConfig config =
      fsim::bench::PaperDefaults(fsim::SimVariant::kBijective);
  config.theta = 1.0;
  config.num_threads = threads;
  return config;
}

struct ReaderResult {
  LatencyHistogram latency;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t version_regressions = 0;
  uint64_t checks = 0;
  uint64_t check_failures = 0;
  // Traced runs: wall time and query count of traced / untraced windows.
  double traced_s = 0, untraced_s = 0;
  uint64_t traced_q = 0, untraced_q = 0;
  // Traced runs, layer phase.
  std::vector<double> acquire_ns, pair_ns, topk_cached_ns, topk_row_us,
      thresh_us, retire_us;
};

struct Shared {
  const fsim::QueryEngine* engine;
  const fsim::SnapshotStore* store;
  const fsim::FSimScores* scores;  // key source for the query stream
  size_t cache_k;
  uint64_t seed;
  PublishPacer* pacer;  // null while calibrating
  // Readers stop at the first progress batch past deadline_ns once every
  // publish is done; hard_deadline_ns bounds a publisher that falls behind.
  uint64_t deadline_ns;
  uint64_t hard_deadline_ns;
};

// The closed loop behind the end-to-end metrics: draw, Run, record.
// `tracer` (traced runs) wraps every 64th query of alternating windows in a
// span, so the run measures its own tracing overhead.
void ReadLoop(const Shared& sh, uint32_t reader, Tracer* tracer,
              ReaderResult* out) {
  QueryStream stream(sh.seed, reader, sh.scores, sh.cache_k);
  uint64_t last_version = 0;
  uint64_t window_start = NowNanos();
  bool traced_window = false;
  for (uint64_t i = 1;; ++i) {
    const fsim::Query q = stream.Next();
    const bool check =
        i % kCheckEvery == 0 && q.kind == fsim::Query::Kind::kPair;
    fsim::SnapshotPtr held;
    if (check) held = sh.store->Acquire();
    const bool span = traced_window && i % 64 == 0;
    const uint64_t t0 = NowNanos();
    int32_t id = span ? tracer->Begin("serve.query.run", i) : -1;
    const fsim::Result<fsim::QueryResult> r = sh.engine->Run(q);
    tracer->End(id);
    const uint64_t t1 = NowNanos();
    out->latency.Record(t1 - t0);
    if (!r.ok()) {
      ++out->failed;
    } else {
      if (r->version < last_version) ++out->version_regressions;
      last_version = r->version;
      if (check) {
        // Every published version carries the same scores, so the held
        // snapshot's PairScore is the answer whatever version Run used.
        ++out->checks;
        if (r->score != held->PairScore(q.u, q.v)) ++out->check_failures;
      }
    }
    if (i % kProgressBatch == 0) {
      out->queries += kProgressBatch;
      if (sh.pacer != nullptr) sh.pacer->AddProgress(kProgressBatch);
      if (tracer->enabled() && i % (64 * kProgressBatch) == 0) {
        const double s = SecondsSince(window_start);
        (traced_window ? out->traced_s : out->untraced_s) += s;
        (traced_window ? out->traced_q : out->untraced_q) +=
            64 * kProgressBatch;
        traced_window = !traced_window;
        window_start = NowNanos();
      }
      if (t1 >= sh.deadline_ns && (sh.pacer == nullptr || sh.pacer->done())) {
        break;
      }
      if (t1 >= sh.hard_deadline_ns) {
        if (sh.pacer != nullptr) sh.pacer->Cancel();  // fails the count check
        break;
      }
    }
  }
}

// Traced runs only: times each layer's public calls on held snapshots
// while the publisher keeps republishing.
void LayerLoop(const Shared& sh, uint32_t reader, Tracer* /*tracer*/,
               ReaderResult* out) {
  QueryStream stream(sh.seed, reader + 100, sh.scores, sh.cache_k);
  std::vector<fsim::Query> pairs, cached, other;
  for (uint64_t round = 0;; ++round) {
    // Acquire, in blocks of 64 (one clock read per block).
    uint64_t t0 = NowNanos();
    for (int k = 0; k < 64; ++k) {
      fsim::SnapshotPtr p = sh.store->Acquire();
      if (p == nullptr) ++out->failed;
    }
    out->acquire_ns.push_back(static_cast<double>(NowNanos() - t0) / 64);

    fsim::SnapshotPtr held = sh.store->Acquire();
    pairs.clear();
    cached.clear();
    other.clear();
    while (pairs.size() < 64 || cached.size() < 4 || other.size() < 2) {
      const fsim::Query q = stream.Next();
      if (q.kind == fsim::Query::Kind::kPair) {
        if (pairs.size() < 64) pairs.push_back(q);
      } else if (q.kind == fsim::Query::Kind::kTopK && q.k <= sh.cache_k) {
        if (cached.size() < 4) cached.push_back(q);
      } else if (other.size() < 2) {
        other.push_back(q);
      }
    }
    double sink = 0.0;
    t0 = NowNanos();
    for (const fsim::Query& q : pairs) {
      sink += fsim::QueryEngine::Answer(*held, q).score;
    }
    out->pair_ns.push_back(static_cast<double>(NowNanos() - t0) / 64);
    t0 = NowNanos();
    for (const fsim::Query& q : cached) {
      sink += static_cast<double>(
          fsim::QueryEngine::Answer(*held, q).entries.size());
    }
    out->topk_cached_ns.push_back(static_cast<double>(NowNanos() - t0) / 4);
    for (const fsim::Query& q : other) {
      t0 = NowNanos();
      sink += static_cast<double>(
          fsim::QueryEngine::Answer(*held, q).entries.size());
      const double us = static_cast<double>(NowNanos() - t0) * 1e-3;
      (q.kind == fsim::Query::Kind::kTopK ? out->topk_row_us : out->thresh_us)
          .push_back(us);
    }
    if (sink < 0) ++out->failed;  // keeps the answers observable
    // Releasing the last reference to a snapshot the store has moved past
    // destroys it on this thread: that is the retire cost readers pay.
    if (held.use_count() == 1) {
      t0 = NowNanos();
      held.reset();
      out->retire_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
    }
    held.reset();
    out->queries += 64 + 4 + 2;
    if (round % 16 == 15) {
      if (sh.pacer != nullptr) sh.pacer->AddProgress(16 * 70);
      const uint64_t now = NowNanos();
      if (now >= sh.deadline_ns && (sh.pacer == nullptr || sh.pacer->done())) {
        break;
      }
      if (now >= sh.hard_deadline_ns) {
        if (sh.pacer != nullptr) sh.pacer->Cancel();  // fails the count check
        break;
      }
    }
  }
}

// Republishes pacer->publishes() fresh copies of `base`'s scores, each when
// the pacer releases it.
void PublishLoop(fsim::SnapshotStore* store, const fsim::FSimSnapshot& base,
                 size_t cache_k, PublishPacer* pacer,
                 std::vector<double>* build_ms) {
  for (size_t i = 0; i < pacer->publishes(); ++i) {
    if (!pacer->WaitForTurn(i)) return;
    const uint64_t t0 = NowNanos();
    fsim::FSimScores copy = base.scores();
    fsim::SnapshotMeta meta;
    meta.version = store->NextVersion();
    store->Publish(std::make_shared<const fsim::FSimSnapshot>(
        fsim::FreezeScores(std::move(copy)), cache_k, meta));
    build_ms->push_back(static_cast<double>(NowNanos() - t0) * 1e-6);
    pacer->MarkPublished(i);
  }
}

using LoopFn = void (*)(const Shared&, uint32_t, Tracer*, ReaderResult*);

// One thread per entry of `results`, reader r with tracer r.
void RunReaders(const Shared& sh, LoopFn loop, std::vector<Tracer>* tracers,
                std::vector<ReaderResult>* results) {
  std::vector<std::thread> threads;
  for (uint32_t r = 0; r < results->size(); ++r) {
    threads.emplace_back(loop, std::cref(sh), r, &(*tracers)[r],
                         &(*results)[r]);
  }
  for (std::thread& t : threads) t.join();
}

// One phase: readers running `loop` for `seconds` while the publisher
// republishes `publishes` times, paced by reader progress. The pacing comes
// from the readers' rate in a short calibration (not reported) without a
// publisher, so the publishes spread over the whole phase.
double RunPhase(Shared sh, LoopFn loop, double seconds, size_t publishes,
                fsim::SnapshotStore* store, const fsim::FSimSnapshot& base,
                std::vector<Tracer>* tracers,
                std::vector<ReaderResult>* results,
                std::vector<double>* build_ms) {
  std::vector<ReaderResult> calibration(results->size());
  std::vector<Tracer> off;
  for (uint32_t r = 0; r < results->size(); ++r) off.emplace_back(false, r);
  sh.pacer = nullptr;
  sh.deadline_ns = NowNanos() + static_cast<uint64_t>(kCalibrateSeconds * 1e9);
  sh.hard_deadline_ns = sh.deadline_ns;
  RunReaders(sh, loop, &off, &calibration);
  uint64_t queries = 0;
  for (const ReaderResult& s : calibration) queries += s.queries;
  const double rate = static_cast<double>(queries) / kCalibrateSeconds;

  PublishPacer pacer(static_cast<uint64_t>(rate * seconds /
                                           static_cast<double>(publishes + 1)),
                     publishes);
  sh.pacer = &pacer;
  const uint64_t start = NowNanos();
  const auto phase_ns = static_cast<uint64_t>(seconds * 1e9);
  sh.deadline_ns = start + phase_ns;
  sh.hard_deadline_ns =
      sh.deadline_ns + std::max<uint64_t>(phase_ns, 10'000'000'000ULL);
  std::thread publisher(PublishLoop, store, std::cref(base), sh.cache_k,
                        &pacer, build_ms);
  RunReaders(sh, loop, tracers, results);
  const double phase_s = SecondsSince(start);
  pacer.Cancel();  // no-op once every publish is done
  publisher.join();
  return phase_s;
}

// The service is booted in set-up and serves every slice; each slice runs
// the readers for its seconds while kPublishes / kCycles publishes happen.
class ReadsPhase : public Phase {
 public:
  ReadsPhase(const Args& args, Report* report)
      : args_(args), report_(report) {}

  // Generates the graph and boots the service (Create + FLUSH), several
  // times; the last service stays up.
  double SetUp() override {
    const fsim::FSimConfig config = ReadsConfig(BenchThreads());
    const fsim::ServeOptions options;
    cache_k_ = options.policy.topk_cache_k;
    std::vector<double> setup_times;
    for (int i = 0; i < kSetupRepeats; ++i) {
      service_.reset();
      const uint64_t start = NowNanos();
      const fsim::Graph graph =
          fsim::MakeDataset(SeededSpec("gp", args_.seed, kGraphScale));
      auto created = fsim::FSimService::Create(graph, graph, config, options);
      report_->Check(created.ok(), "Create: " + created.status().ToString());
      if (!created.ok()) return 0.0;
      service_ = std::move(created).ValueOrDie();
      const fsim::Status flushed = service_->driver().Flush();
      report_->Check(flushed.ok(), "Flush: " + flushed.ToString());
      setup_times.push_back(SecondsSince(start));
    }
    base_ = service_->store().Acquire();
    report_->Check(base_ != nullptr && base_->scores().NumPairs() > 0,
                   "the booted service published scores");
    if (base_ == nullptr || base_->scores().NumPairs() == 0) {
      service_.reset();
      return 0.0;
    }
    std::printf("reads: gp analog, %zu pairs, %u readers, %zu publishes\n",
                base_->scores().NumPairs(), args_.readers, kPublishes);
    publishes_before_ = service_->store().publish_count();
    results_.resize(args_.readers);
    for (uint32_t r = 0; r < args_.readers; ++r) {
      tracers_.emplace_back(args_.trace, r, size_t{1} << 18);
    }
    return Median(setup_times);
  }

  // One slice. A traced run alternates slices of the traced read loop and
  // of layer timing.
  bool Step(double seconds) override {
    if (service_ == nullptr || slices_ == kCycles) return false;
    const Shared sh{&service_->query_engine(),
                    &service_->store(),
                    &base_->scores(),
                    cache_k_,
                    args_.seed * kCycles + slices_,
                    nullptr,
                    0,
                    0};
    const bool layers = args_.trace && slices_ % 2 == 1;
    const double slice_s =
        RunPhase(sh, layers ? LayerLoop : ReadLoop, seconds,
                 kPublishes / kCycles, &service_->store(), *base_, &tracers_,
                 &results_, &build_ms_);
    if (!layers) read_s_ += slice_s;
    ++slices_;
    return slices_ < kCycles;
  }

  void Finish() override {
    report_->Check(slices_ == kCycles,
                   "reads: ran " + std::to_string(slices_) + " of " +
                       std::to_string(kCycles) + " slices");
    if (slices_ < kCycles) return;
    LatencyHistogram latency;
    uint64_t failed = 0;
    for (const ReaderResult& r : results_) {
      latency.Merge(r.latency);
      failed += r.failed;
      report_->Check(r.version_regressions == 0,
                     "versions only increase for each reader");
      report_->Check(
          r.checks > 0 && r.check_failures == 0,
          "sampled PAIR answers equal the held snapshot's PairScore (" +
              std::to_string(r.check_failures) + " of " +
              std::to_string(r.checks) + " differ)");
    }
    report_->Attempt(true, latency.count() - failed);
    report_->Attempt(false, failed);
    const size_t publishes =
        service_->store().publish_count() - publishes_before_;
    report_->Check(publishes == kPublishes,
                   "exactly " + std::to_string(kPublishes) +
                       " publishes (saw " + std::to_string(publishes) + ")");
    std::printf("reads: %llu queries in %.2f s\n",
                static_cast<unsigned long long>(latency.count()), read_s_);

    if (!args_.trace) {
      report_->Add("read_qps",
                   static_cast<double>(latency.count()) / read_s_, "1/s",
                   latency.count());
      report_->Add("read_p50_us", latency.PercentileNanos(50) * 1e-3, "us",
                   latency.count());
      report_->Add("read_p99_us", latency.PercentileNanos(99) * 1e-3, "us",
                   latency.count());
      return;
    }
    ReportLayers(publishes);
  }

 private:
  void ReportLayers(size_t publishes) {
    std::vector<double> acquire, pair, cached, row, thresh, retire;
    double traced_s = 0, untraced_s = 0;
    uint64_t traced_q = 0, untraced_q = 0;
    for (const ReaderResult& r : results_) {
      acquire.insert(acquire.end(), r.acquire_ns.begin(), r.acquire_ns.end());
      pair.insert(pair.end(), r.pair_ns.begin(), r.pair_ns.end());
      cached.insert(cached.end(), r.topk_cached_ns.begin(),
                    r.topk_cached_ns.end());
      row.insert(row.end(), r.topk_row_us.begin(), r.topk_row_us.end());
      thresh.insert(thresh.end(), r.thresh_us.begin(), r.thresh_us.end());
      retire.insert(retire.end(), r.retire_us.begin(), r.retire_us.end());
      traced_s += r.traced_s;
      untraced_s += r.untraced_s;
      traced_q += r.traced_q;
      untraced_q += r.untraced_q;
    }
    report_->Add("serve.snapshot.acquire_ns", Median(acquire), "ns",
                 acquire.size());
    report_->Add("serve.query.pair_ns", Median(pair), "ns", pair.size());
    report_->Add("serve.query.topk_cached_ns", Median(cached), "ns",
                 cached.size());
    report_->Add("serve.query.topk_row_us", Median(row), "us", row.size());
    report_->Add("serve.query.thresh_us", Median(thresh), "us",
                 thresh.size());
    report_->Add("serve.snapshot.retire_us_p50", Median(retire), "us",
                 retire.size());
    report_->Add("serve.snapshot.retire_us_max",
                 retire.empty()
                     ? 0.0
                     : *std::max_element(retire.begin(), retire.end()),
                 "us", retire.size());
    report_->Add("serve.snapshot.build_ms", Median(build_ms_), "ms",
                 build_ms_.size());
    report_->Add("serve.snapshot.publishes", static_cast<double>(publishes),
                 "count");
    // Per-query time in traced windows against untraced ones, same run.
    const double traced_per_q = traced_s / static_cast<double>(traced_q);
    const double untraced_per_q =
        untraced_s / static_cast<double>(untraced_q);
    report_->Add("obs.trace_overhead_pct.reads",
                 100.0 * (traced_per_q / untraced_per_q - 1.0), "%",
                 traced_q + untraced_q);
    std::vector<const Tracer*> all;
    for (const Tracer& t : tracers_) {
      all.push_back(&t);
      if (t.dropped() > 0) {
        std::printf("reads: reader %u kept %zu spans and dropped %zu past "
                    "its capacity\n",
                    t.thread_id(), t.spans().size(), t.dropped());
      }
    }
    if (!WriteTrace(TracePath(args_, "reads"), all)) {
      report_->Check(false, "write " + TracePath(args_, "reads"));
    }
  }

  const Args args_;
  Report* report_;
  std::unique_ptr<fsim::FSimService> service_;
  fsim::SnapshotPtr base_;
  size_t cache_k_ = 0;
  size_t publishes_before_ = 0;
  std::vector<ReaderResult> results_;
  std::vector<Tracer> tracers_;
  std::vector<double> build_ms_;
  int slices_ = 0;
  double read_s_ = 0.0;  // time in the read loop (the qps denominator)
};

}  // namespace

std::unique_ptr<Phase> MakeReads(const Args& args, Report* report) {
  return std::make_unique<ReadsPhase>(args, report);
}

}  // namespace perfbench
