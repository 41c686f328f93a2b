// The edits phase: edit-to-visibility with restart. FSimServices over the
// yeast analog shape (bj, θ=1, paper-default ε, library-default
// IncrementalOptions) with WAL durability in a fresh directory and
// background refresh on, at tN engine threads — `fsim_cli --serve
// --wal-dir --threads N` — driven by one client over ServeLoop in rounds,
// each over its own seeded graph: a cold boot (Create -> FLUSH -> PAIR),
// EDIT (graph 1; graph 2 is the frozen reference) + FLUSH + PAIR steps, a
// stop, more cold boots, and a restart of the stopped service over its own
// directory (Create -> FLUSH). The traced run adds spans and replays each
// edit right after its step through each layer's public calls on an
// identical engine, to split a step into layers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/fsim_engine.h"
#include "core/incremental.h"
#include "serve/recovery.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wal.h"
#include "serve_client.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepeats = 15;
// Durable snapshot cadence (fsim_cli --wal-snapshot-edits). A round's
// kRoundSteps edits start right after a durable snapshot (the one Create
// takes), so exactly kTailEdits edits follow the last durable snapshot when
// the round ends and the service stops: every restart replays that many,
// whatever the edit speed.
constexpr size_t kSnapshotEvery = 8;
constexpr size_t kTailEdits = 4;
constexpr size_t kRoundSteps = kSnapshotEvery + kTailEdits;
constexpr uint64_t kMinRounds = 2;
constexpr uint64_t kMaxRounds = 16;
constexpr int kBootsPerRound = 3;

// A traced run leaves every other pair of edit steps untraced (pairs, so
// each half holds inserts and removes alike), which gives the tracing
// overhead on the same stream.
bool TracedStep(uint64_t step) { return (step / 2) % 2 == 0; }

fsim::FSimConfig EditsConfig(int threads) {
  fsim::FSimConfig config =
      fsim::bench::PaperDefaults(fsim::SimVariant::kBijective);
  config.theta = 1.0;
  config.num_threads = threads;
  return config;
}

fsim::ServeOptions EditsOptions(const std::string& dir) {
  fsim::ServeOptions options;
  options.durability.dir = dir;
  options.durability.snapshot_every_edits = kSnapshotEvery;
  options.background_refresh = true;
  return options;
}

std::string EditLine(const EditStep& e) {
  return std::string("EDIT ") + (e.insert ? "INSERT" : "REMOVE") + " 1 " +
         std::to_string(e.from) + " " + std::to_string(e.to);
}

std::string PairLine(fsim::NodeId u, fsim::NodeId v) {
  return "PAIR " + std::to_string(u) + " " + std::to_string(v);
}

// Parses "OK version <v>"; false on anything else.
bool ParseFlush(const std::string& answer, uint64_t* version) {
  return std::sscanf(answer.c_str(), "OK version %lu", version) == 1;
}

// Parses "SCORE <s> v<version>"; false on anything else.
bool ParseScore(const std::string& answer, double* score, uint64_t* version) {
  return std::sscanf(answer.c_str(), "SCORE %lf v%lu", score, version) == 2;
}

bool SameGraph(const fsim::Graph& a, const fsim::Graph& b) {
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (fsim::NodeId u = 0; u < a.NumNodes(); ++u) {
    if (a.Label(u) != b.Label(u)) return false;
    const auto x = a.OutNeighbors(u);
    const auto y = b.OutNeighbors(u);
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) return false;
  }
  return true;
}

// The documented precision of a served snapshot against the exact
// fixpoint: ε·w/(1−w) from the solve plus τ·(1+w)/(1−w) from propagation.
double ServedBound(const fsim::FSimConfig& config,
                   const fsim::IncrementalOptions& options) {
  const double w = config.w_out + config.w_in;
  return config.epsilon * w / (1.0 - w) +
         options.propagation_tolerance * (1.0 + w) / (1.0 - w);
}

// A tightly converged reference solve of the final graphs.
fsim::Result<fsim::FSimScores> Reference(const fsim::Graph& g1,
                                         const fsim::Graph& g2,
                                         fsim::FSimConfig config) {
  config.epsilon = 1e-12;
  config.max_iterations = 400;
  return fsim::ComputeFSim(g1, g2, config);
}

double MaxAbsDiff(const fsim::FSimScores& reference,
                  const fsim::FSimScores& scores) {
  if (reference.keys() != scores.keys()) return INFINITY;
  double worst = 0.0;
  for (size_t i = 0; i < reference.values().size(); ++i) {
    worst = std::max(worst,
                     std::abs(reference.values()[i] - scores.values()[i]));
  }
  return worst;
}

// Sends one request and checks that the answer starts with `expect`.
std::string Call(ServeConnection* conn, const std::string& request,
                 const char* expect, Report* report) {
  std::string answer = conn->Call(request);
  report->Check(answer.rfind(expect, 0) == 0,
                request + " -> '" + answer + "'");
  return answer;
}

struct Booted {
  std::unique_ptr<fsim::FSimService> service;
  std::unique_ptr<ServeConnection> conn;
};

// Create -> FLUSH (and optionally PAIR) over `dir`; returns the service.
Booted Boot(const fsim::Graph& graph, const fsim::FSimConfig& config,
            const std::string& dir, Report* report, Tracer* tracer,
            uint64_t request, bool pair) {
  Booted b;
  {
    ScopedSpan span(tracer, "serve.create", request);
    auto created = fsim::FSimService::Create(graph, graph, config,
                                             EditsOptions(dir));
    report->Check(created.ok(), "Create: " + created.status().ToString());
    if (!created.ok()) return b;
    b.service = std::move(created).ValueOrDie();
  }
  b.conn = std::make_unique<ServeConnection>(b.service.get());
  {
    ScopedSpan span(tracer, "client.flush", request);
    Call(b.conn.get(), "FLUSH", "OK version", report);
  }
  if (pair) {
    ScopedSpan span(tracer, "client.pair", request);
    Call(b.conn.get(), PairLine(0, 0), "SCORE", report);
  }
  return b;
}

void Stop(Booted* b) {
  b->conn.reset();
  b->service.reset();
}

// Work counts of the replayed edits, gathered across the rounds' replays.
struct ReplayTotals {
  std::vector<fsim::EditStats> traced;  // EditStats of traced steps, in order
  size_t edits = 0;
  size_t truncated = 0;
};

// The per-layer replay on an identical engine (traced runs only). Each edit
// the service applies is replayed right after its step through the layers'
// public calls, each under its own span, so the layer times and the
// service's step time come from the same moment of the run; the layer
// metrics are the spans' self times (ReportLayers).
class LayerReplay {
 public:
  LayerReplay(const Args& args, const fsim::Graph& graph,
              const fsim::FSimConfig& config, Tracer* tracer,
              ReplayTotals* totals, Report* report)
      : graph_(graph),
        config_(config),
        tracer_(tracer),
        totals_(totals),
        report_(report),
        dir_(args.out_dir, "perfbench-replay") {
    fsim::Result<fsim::IncrementalFSim> created = [&] {
      ScopedSpan span(tracer_, "core.incremental.create", 0);
      return fsim::IncrementalFSim::Create(graph, graph, config, options_);
    }();
    report_->Check(created.ok(), "IncrementalFSim::Create: " +
                                     created.status().ToString());
    if (!created.ok()) return;
    engine_ = std::make_unique<fsim::IncrementalFSim>(
        std::move(created).ValueOrDie());
    auto wal = fsim::WalWriter::Open(dir_.path(), 1);
    report_->Check(wal.ok(), "WalWriter::Open: " + wal.status().ToString());
    if (!wal.ok()) {
      engine_.reset();
      return;
    }
    wal_ = std::move(wal).ValueOrDie();
    Persist(0, 0);  // Create persists once at boot
  }

  bool ok() const { return engine_ != nullptr; }

  // Step `n` of the run (the span request id): WAL append, the edit,
  // snapshot copy, cache build, publish, and the durable snapshot the
  // service takes kSnapshotEvery edits into a round.
  void Step(uint64_t n, const EditStep& e) {
    ScopedSpan step_span(tracer_, "replay.step", n);
    {
      ScopedSpan span(tracer_, "serve.wal.append", n);
      fsim::EditRecord rec;
      rec.graph_index = 1;
      rec.insert = e.insert;
      rec.from = e.from;
      rec.to = e.to;
      auto lsn = wal_->AppendDurable(rec);
      report_->Check(lsn.ok(), "WAL append: " + lsn.status().ToString());
    }
    fsim::Status edited;
    {
      ScopedSpan span(tracer_, "core.incremental.edit", n);
      edited = e.insert ? engine_->InsertEdge(1, e.from, e.to)
                        : engine_->RemoveEdge(1, e.from, e.to);
    }
    const fsim::EditStats& st = engine_->last_edit_stats();
    report_->Check(edited.ok(), "replay edit " + std::to_string(n) + ": " +
                                    edited.ToString());
    ++totals_->edits;
    if (st.truncated) ++totals_->truncated;
    if (TracedStep(n)) totals_->traced.push_back(st);
    fsim::FSimScores copy;
    {
      ScopedSpan span(tracer_, "serve.snapshot.copy", n);
      copy = engine_->Snapshot();
    }
    fsim::SnapshotPtr snapshot;
    {
      ScopedSpan span(tracer_, "serve.snapshot.cache_build", n);
      fsim::SnapshotMeta meta;
      meta.version = store_.NextVersion();
      meta.edits_applied = ++applied_;
      snapshot = std::make_shared<const fsim::FSimSnapshot>(
          fsim::FreezeScores(std::move(copy)), cache_k_, meta);
    }
    {
      ScopedSpan span(tracer_, "serve.snapshot.publish", n);
      store_.Publish(std::move(snapshot));
    }
    if (applied_ == kSnapshotEvery) Persist(applied_, n);
  }

  // Recovery as after the stop: load the newest snapshot and the WAL tail,
  // warm-start an engine from the recovered scores, replay the tail.
  void Recover(uint64_t request) {
    wal_.reset();  // close the log before recovery reads it
    fsim::Result<fsim::RecoveredState> recovered = [&] {
      ScopedSpan span(tracer_, "serve.recovery.load", request);
      return fsim::RecoverServeState(dir_.path(), graph_, graph_);
    }();
    const bool have_snapshot =
        recovered.ok() && recovered->scores.has_value();
    report_->Check(have_snapshot,
                   "RecoverServeState found the durable snapshot");
    if (!have_snapshot) return;
    report_->Check(recovered->tail.size() == kTailEdits,
                   "replay: recovery tail has " + std::to_string(kTailEdits) +
                       " edits");
    auto warm = [&] {
      ScopedSpan span(tracer_, "serve.recovery.warm_create", request);
      return fsim::IncrementalFSim::Create(recovered->g1, recovered->g2,
                                           config_, options_,
                                           &*recovered->scores);
    }();
    report_->Check(warm.ok(), "warm Create: " + warm.status().ToString());
    if (!warm.ok()) return;
    {
      ScopedSpan span(tracer_, "serve.recovery.replay", request);
      for (const fsim::EditRecord& rec : recovered->tail) {
        const fsim::Status s =
            rec.insert ? warm->InsertEdge(rec.graph_index, rec.from, rec.to)
                       : warm->RemoveEdge(rec.graph_index, rec.from, rec.to);
        report_->Check(s.ok(), "recovery replay: " + s.ToString());
      }
    }
    report_->Check(
        SameGraph(warm->MaterializeG1(), engine_->MaterializeG1()),
        "replay: recovered graph 1 equals the replayed graph 1");
  }

  // The replayed engine against a tight reference solve (informational).
  double MaxAbsErr() {
    auto reference = Reference(engine_->MaterializeG1(),
                               engine_->MaterializeG2(), config_);
    report_->Check(reference.ok(), "reference solve");
    return reference.ok() ? MaxAbsDiff(*reference, engine_->Snapshot()) : 0.0;
  }

 private:
  void Persist(uint64_t lsn, uint64_t request) {
    ScopedSpan span(tracer_, "serve.recovery.persist", request);
    const fsim::Status s = fsim::PersistSnapshot(
        dir_.path(), lsn, engine_->MaterializeG1(), engine_->MaterializeG2(),
        engine_->Snapshot());
    report_->Check(s.ok(), "PersistSnapshot: " + s.ToString());
  }

  const fsim::Graph& graph_;
  const fsim::FSimConfig config_;
  const fsim::IncrementalOptions options_;
  const size_t cache_k_ = fsim::RefreshPolicy().topk_cache_k;
  Tracer* tracer_;
  ReplayTotals* totals_;
  Report* report_;
  ScratchDir dir_;
  std::unique_ptr<fsim::IncrementalFSim> engine_;
  std::unique_ptr<fsim::WalWriter> wal_;
  fsim::SnapshotStore store_;
  size_t applied_ = 0;
};

// The layer metrics of a traced run: self-time medians of the replay spans
// over the steps the service run traced, so they describe the same edits
// as serve.step_ms. The edit call is split by its EditStats; what the split
// leaves is seeding.
void ReportLayers(const Tracer& tracer, const ReplayTotals& totals,
                  double traced_step_ms, double max_err, Report* report) {
  const std::vector<double> edit_ms =
      tracer.SelfMillis("core.incremental.edit", TracedStep);
  std::vector<double> patch_us, index_us, propagate_ms, seed_us, recomputed,
      waves;
  for (size_t k = 0; k < totals.traced.size() && k < edit_ms.size(); ++k) {
    const fsim::EditStats& st = totals.traced[k];
    patch_us.push_back(st.graph_rebuild_seconds * 1e6);
    index_us.push_back(st.index_patch_seconds * 1e6);
    propagate_ms.push_back(st.propagate_seconds * 1e3);
    seed_us.push_back(edit_ms[k] * 1e3 - (st.graph_rebuild_seconds +
                                          st.index_patch_seconds +
                                          st.propagate_seconds) *
                                             1e6);
    recomputed.push_back(static_cast<double>(st.recomputed));
    waves.push_back(st.waves);
  }
  auto step_median = [&](const char* name) {
    return Median(tracer.SelfMillis(name, TracedStep));
  };
  auto add_median = [&](const char* metric, const char* span, double scale,
                        const char* unit) {
    const std::vector<double> ms = tracer.SelfMillis(span);
    report->Add(metric, Median(ms) * scale, unit, ms.size());
  };
  const double append = step_median("serve.wal.append");
  const double copy = step_median("serve.snapshot.copy");
  const double cache = step_median("serve.snapshot.cache_build");
  const double publish = step_median("serve.snapshot.publish");
  const double patch = Median(patch_us) * 1e-3;
  const double index = Median(index_us) * 1e-3;
  const double seed = Median(seed_us) * 1e-3;
  const double propagate = Median(propagate_ms);
  const size_t n = totals.traced.size();
  add_median("core.incremental.create_s", "core.incremental.create", 1e-3,
             "s");
  report->Add("graph.patch_us", patch * 1e3, "us", n);
  report->Add("core.incremental.index_patch_us", index * 1e3, "us", n);
  report->Add("core.incremental.seed_us", seed * 1e3, "us", n);
  report->Add("core.incremental.propagate_ms", propagate, "ms", n);
  report->Add("core.incremental.recomputed_per_edit", Median(recomputed),
              "count", n);
  report->Add("core.incremental.waves_per_edit", Median(waves), "count", n);
  report->Add("core.incremental.truncated_edits",
              static_cast<double>(totals.truncated), "count", totals.edits);
  report->Add("serve.wal.append_us", append * 1e3, "us", n);
  report->Add("serve.snapshot.copy_ms", copy, "ms", n);
  report->Add("serve.snapshot.cache_build_ms", cache, "ms", n);
  report->Add("serve.snapshot.publish_us", publish * 1e3, "us", n);
  add_median("serve.recovery.persist_ms", "serve.recovery.persist", 1.0,
             "ms");
  add_median("serve.recovery.load_ms", "serve.recovery.load", 1.0, "ms");
  add_median("serve.recovery.warm_create_s", "serve.recovery.warm_create",
             1e-3, "s");
  add_median("serve.recovery.replay_s", "serve.recovery.replay", 1e-3, "s");
  report->Add("serve.step_ms", traced_step_ms, "ms", n);
  // The part of the traced step median no layer accounts for: queue wait,
  // coalescing, wire parse and formatting, thread hand-offs. Together with
  // the step-layer medians above it adds up to serve.step_ms.
  report->Add("serve.unaccounted_ms",
              traced_step_ms - (append + patch + index + seed + propagate +
                                copy + cache + publish),
              "ms", n);
  report->Add("core.incremental.max_abs_err", max_err, "abs");
}

// Rounds, each over its own seeded graph, so every metric samples several
// graphs: the per-edit work differs by up to ~20% from one seeded graph to
// the next, while reruns of one graph repeat within a few percent. A round
// cold-boots a service, runs kRoundSteps edit steps, stops it, cold-boots
// kBootsPerRound other services and restarts the stopped one over its own
// directory; the restart replays the kTailEdits edits after the last
// durable snapshot. At most one service of this phase is up at a time.
class EditsPhase : public Phase {
 public:
  EditsPhase(const Args& args, Report* report)
      : args_(args),
        report_(report),
        config_(EditsConfig(BenchThreads())),
        tracer_(args.trace, 0) {}

  // The rounds' graphs and edit streams, regenerated several times.
  double SetUp() override {
    std::vector<double> setup_times;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const uint64_t start = NowNanos();
      for (uint64_t r = 0; r < kMaxRounds; ++r) {
        const uint64_t seed = args_.seed * kMaxRounds + r;
        graphs_[r] = fsim::MakeDataset(SeededSpec("yeast", seed));
        streams_[r] = MakeEditStream(graphs_[r], seed, kRoundSteps);
      }
      setup_times.push_back(SecondsSince(start));
    }
    std::printf("edits: yeast-shape graphs of %zu nodes, ~%zu edges, tN=%d\n",
                graphs_[0].NumNodes(), graphs_[0].NumEdges(),
                config_.num_threads);
    return Median(setup_times);
  }

  // One round.
  bool Step(double /*seconds*/) override {
    if (round_ >= kMaxRounds) return false;
    const uint64_t round = round_++;
    const fsim::Graph& graph = graphs_[round];
    ScratchDir dir(args_.out_dir, "perfbench-wal");
    Booted live = ColdBoot(graph, dir);
    if (live.service == nullptr) return false;
    if (args_.trace) {
      replay_ = std::make_unique<LayerReplay>(args_, graph, config_, &tracer_,
                                              &totals_, report_);
      if (!replay_->ok()) return false;
    }

    // Edit steps: EDIT + FLUSH + PAIR, timed from writing EDIT to reading
    // the PAIR answer.
    for (const EditStep& e : streams_[round]) {
      Tracer* t = args_.trace && TracedStep(n_) ? &tracer_ : &off_;
      const uint64_t start = NowNanos();
      std::string flush_answer, pair_answer;
      {
        ScopedSpan step(t, "step", n_);
        {
          ScopedSpan span(t, "client.edit", n_);
          Call(live.conn.get(), EditLine(e), "OK logged", report_);
        }
        {
          ScopedSpan span(t, "client.flush", n_);
          flush_answer =
              Call(live.conn.get(), "FLUSH", "OK version", report_);
        }
        {
          ScopedSpan span(t, "client.pair", n_);
          pair_answer = Call(live.conn.get(), PairLine(e.from, e.to), "SCORE",
                             report_);
        }
      }
      const double ms = SecondsSince(start) * 1e3;
      step_ms_.push_back(ms);
      if (args_.trace) {
        (t == &off_ ? untraced_ms_ : traced_ms_).push_back(ms);
        replay_->Step(n_, e);
      }
      uint64_t flushed = 0;
      uint64_t seen = 0;
      double score = 0.0;
      report_->Check(ParseFlush(flush_answer, &flushed) &&
                         ParseScore(pair_answer, &score, &seen) &&
                         seen >= flushed,
                     "step " + std::to_string(n_) +
                         ": PAIR version >= FLUSH version");
      ++n_;
    }

    // Stop.
    const fsim::RefreshDriver::Stats stats = live.service->driver().stats();
    report_->Check(stats.edits_applied == kRoundSteps &&
                       stats.edits_coalesced == 0 && stats.edits_failed == 0,
                   "round " + std::to_string(round) +
                       ": every edit step took effect");
    const fsim::Graph g1_before = live.service->driver().MaterializeG1();
    const fsim::Graph g2_before = live.service->driver().MaterializeG2();
    stopped_snapshot_ = live.service->store().Acquire();
    Stop(&live);

    for (int b = 0; b < kBootsPerRound; ++b) {
      ScratchDir other_dir(args_.out_dir, "perfbench-wal");
      Booted other = ColdBoot(graph, other_dir);
      Stop(&other);
    }

    // Restart over the stopped service's directory: Create -> FLUSH.
    const uint64_t start = NowNanos();
    {
      ScopedSpan span(&tracer_, "restart", round);
      live = Boot(graph, config_, dir.path(), report_, &tracer_, round,
                  /*pair=*/false);
    }
    restart_s_.push_back(SecondsSince(start));
    if (live.service == nullptr) return false;
    Call(live.conn.get(), PairLine(0, 0), "SCORE", report_);
    fsim::RefreshDriver& driver = live.service->driver();
    report_->Check(driver.stats().edits_replayed == kTailEdits &&
                       SameGraph(driver.MaterializeG1(), g1_before) &&
                       SameGraph(driver.MaterializeG2(), g2_before),
                   "restart " + std::to_string(round) + ": replayed " +
                       std::to_string(kTailEdits) +
                       " edits; graphs equal the graphs before the stop");
    restarted_snapshot_ = live.service->store().Acquire();
    final_g1_ = g1_before;
    final_g2_ = g2_before;
    Stop(&live);
    if (args_.trace) replay_->Recover(round);
    return true;
  }

  void Finish() override {
    const bool enough = round_ >= kMinRounds && stopped_snapshot_ != nullptr &&
                        restarted_snapshot_ != nullptr &&
                        (!args_.trace || replay_ != nullptr);
    report_->Check(enough, "edits: too few rounds to report");
    if (!enough) return;
    // Checks: the last round's snapshot before the stop and after the
    // restart against a tight solve of its final graphs.
    auto reference = Reference(final_g1_, final_g2_, config_);
    report_->Check(reference.ok(), "reference solve");
    const double bound = ServedBound(config_, fsim::IncrementalOptions());
    if (reference.ok()) {
      const double stopped_err =
          MaxAbsDiff(*reference, stopped_snapshot_->scores());
      const double restart_err =
          MaxAbsDiff(*reference, restarted_snapshot_->scores());
      std::printf("edits: max |served - reference| before stop %.3g, "
                  "restarted %.3g (bound %.3g)\n",
                  stopped_err, restart_err, bound);
      report_->Check(stopped_err <= bound, "final snapshot within the bound");
      report_->Check(restart_err <= bound,
                     "restarted snapshot within the bound");
    }
    std::printf("edits: %zu boots, %zu steps, %zu restarts\n", boot_s_.size(),
                step_ms_.size(), restart_s_.size());

    if (!args_.trace) {
      report_->Add("boot_s", Median(boot_s_), "s", boot_s_.size());
      report_->Add("edit_visible_p50_ms", Median(step_ms_), "ms",
                   step_ms_.size());
      const double tail = HighestTailPercentile(step_ms_.size());
      if (tail > 50.0) {
        std::printf("edits: edit-to-visibility p%g %.3f ms (n=%zu)\n", tail,
                    Percentile(step_ms_, tail), step_ms_.size());
      }
      report_->Add("restart_s", Median(restart_s_), "s", restart_s_.size());
      return;
    }

    const double traced_step = Median(traced_ms_);
    ReportLayers(tracer_, totals_, traced_step, replay_->MaxAbsErr(),
                 report_);
    report_->Add("obs.trace_overhead_pct.edits",
                 100.0 * (traced_step / Median(untraced_ms_) - 1.0), "%",
                 traced_ms_.size() + untraced_ms_.size());
    if (!WriteTrace(TracePath(args_, "edits"), {&tracer_})) {
      report_->Check(false, "write " + TracePath(args_, "edits"));
    }
  }

 private:
  // A cold boot over a fresh durability directory: Create -> FLUSH -> PAIR.
  Booted ColdBoot(const fsim::Graph& graph, const ScratchDir& dir) {
    const uint64_t start = NowNanos();
    Booted b;
    {
      ScopedSpan span(&tracer_, "boot", boots_);
      b = Boot(graph, config_, dir.path(), report_, &tracer_, boots_,
               /*pair=*/true);
    }
    boot_s_.push_back(SecondsSince(start));
    ++boots_;
    return b;
  }

  const Args args_;
  Report* report_;
  const fsim::FSimConfig config_;
  std::vector<fsim::Graph> graphs_ = std::vector<fsim::Graph>(kMaxRounds);
  std::vector<std::vector<EditStep>> streams_ =
      std::vector<std::vector<EditStep>>(kMaxRounds);
  Tracer tracer_;
  Tracer off_{false, 0};
  ReplayTotals totals_;
  std::unique_ptr<LayerReplay> replay_;
  std::vector<double> boot_s_, step_ms_, traced_ms_, untraced_ms_, restart_s_;
  uint64_t round_ = 0;
  uint64_t boots_ = 0;
  uint64_t n_ = 0;  // edit steps so far, over all rounds
  fsim::Graph final_g1_, final_g2_;
  fsim::SnapshotPtr stopped_snapshot_, restarted_snapshot_;
};

}  // namespace

std::unique_ptr<Phase> MakeEdits(const Args& args, Report* report) {
  return std::make_unique<EditsPhase>(args, report);
}

}  // namespace perfbench
