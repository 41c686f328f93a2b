#include "serve/refresh.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fsim {

namespace {

/// Registry handles resolved once (recording is lock-free; the lookup is
/// not, and ApplyBatchLocked sits behind every refresh round).
struct RefreshMetrics {
  obs::Histogram* queue_wait;
  obs::Histogram* apply_latency;
  obs::Histogram* publish_latency;
  obs::Histogram* persist_latency;
  obs::Counter* edits_applied;
  obs::Counter* edits_coalesced;
  obs::Counter* edits_failed;
  obs::Counter* edits_shed;

  static const RefreshMetrics& Get() {
    static const RefreshMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Default();
      constexpr char kEditsFamily[] = "fsim_refresh_edits_total";
      constexpr char kEditsHelp[] =
          "Edit dispositions across all refresh drivers";
      RefreshMetrics m;
      m.queue_wait = registry.GetHistogram(
          "fsim_refresh_queue_wait_seconds",
          "Submit-to-drain wait of queued edits (coalesced edits report "
          "the oldest submission's wait)",
          obs::Histogram::Unit::kNanoseconds);
      m.apply_latency = registry.GetHistogram(
          "fsim_refresh_apply_seconds",
          "Incremental repair time per drained batch",
          obs::Histogram::Unit::kNanoseconds);
      m.publish_latency = registry.GetHistogram(
          "fsim_refresh_publish_seconds",
          "Snapshot copy + row ranking per publish",
          obs::Histogram::Unit::kNanoseconds);
      m.persist_latency = registry.GetHistogram(
          "fsim_refresh_persist_seconds",
          "Durable snapshot write per persist (excludes WAL rotation)",
          obs::Histogram::Unit::kNanoseconds);
      m.edits_applied =
          registry.GetCounter(kEditsFamily, kEditsHelp, "result", "applied");
      m.edits_coalesced =
          registry.GetCounter(kEditsFamily, kEditsHelp, "result", "coalesced");
      m.edits_failed =
          registry.GetCounter(kEditsFamily, kEditsHelp, "result", "failed");
      m.edits_shed =
          registry.GetCounter(kEditsFamily, kEditsHelp, "result", "shed");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

Status EditQueue::Admit(const EditOp& op) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ > 0 && ops_.size() + reserved_ >= capacity_) {
    // Full — admissible only if it will coalesce onto a queued edit of the
    // same edge (last-op-wins keeps the newest intent without growth).
    const bool coalescible =
        (op.graph_index == 1 || op.graph_index == 2) &&
        index_[op.graph_index == 2].count(PairKey(op.from, op.to)) > 0;
    if (!coalescible) {
      return Status::ResourceExhausted(
          "edit queue is full (overload shed; retry after a refresh)");
    }
  }
  ++reserved_;
  return Status::OK();
}

bool EditQueue::CommitLocked(const EditOp& op) {
  if (reserved_ > 0) --reserved_;
  if (op.graph_index != 1 && op.graph_index != 2) {
    // Let invalid ops flow through to the driver's edits_failed counter.
    ops_.push_back(op);
    return false;
  }
  auto [it, inserted] = index_[op.graph_index == 2].try_emplace(
      PairKey(op.from, op.to), ops_.size());
  if (inserted) {
    ops_.push_back(op);
    return false;
  }
  EditOp& queued = ops_[it->second];
  queued.insert = op.insert;
  if (op.lsn > queued.lsn) queued.lsn = op.lsn;
  return true;
}

bool EditQueue::CommitAdmitted(const EditOp& op) {
  bool coalesced;
  {
    std::lock_guard<std::mutex> lock(mu_);
    coalesced = CommitLocked(op);
  }
  cv_.notify_all();
  return coalesced;
}

void EditQueue::CancelAdmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  if (reserved_ > 0) --reserved_;
}

Status EditQueue::TryPush(const EditOp& op, bool* coalesced) {
  bool merged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ > 0 && ops_.size() + reserved_ >= capacity_) {
      const bool coalescible =
          (op.graph_index == 1 || op.graph_index == 2) &&
          index_[op.graph_index == 2].count(PairKey(op.from, op.to)) > 0;
      if (!coalescible) {
        return Status::ResourceExhausted(
            "edit queue is full (overload shed; retry after a refresh)");
      }
    }
    ++reserved_;  // consumed immediately by the commit below
    merged = CommitLocked(op);
  }
  cv_.notify_all();
  if (coalesced != nullptr) *coalesced = merged;
  return Status::OK();
}

size_t EditQueue::Drain(std::vector<EditOp>* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = ops_.size();
  out->insert(out->end(), ops_.begin(), ops_.end());
  ops_.clear();
  index_[0].clear();
  index_[1].clear();
  return n;
}

size_t EditQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.size();
}

bool EditQueue::WaitNonEmpty(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [this] { return !ops_.empty(); });
  return !ops_.empty();
}

RefreshDriver::RefreshDriver(Graph g1, Graph g2, FSimConfig config,
                             IncrementalOptions inc_options,
                             RefreshPolicy policy, SnapshotStore* store)
    : g1_(std::move(g1)),
      g2_(std::move(g2)),
      config_(std::move(config)),
      inc_options_(inc_options),
      policy_(policy),
      store_(store),
      queue_(policy.queue_capacity) {
  FSIM_CHECK(store_ != nullptr);
  // Callback gauges owned by this driver instance: the newest-constructed
  // driver wins the process-wide gauge (re-register replaces), and the
  // owner token keeps a dying instance from tearing down its successor's.
  obs::Registry& registry = obs::Registry::Default();
  registry.RegisterCallbackGauge(
      "fsim_refresh_queue_depth", "Edits queued awaiting the next drain",
      this, [this] { return static_cast<double>(queue_.size()); });
  registry.RegisterCallbackGauge(
      "fsim_publish_age_seconds",
      "Age of the published snapshot (0 before the first publish)", this,
      [this] {
        const uint64_t t = last_publish_ns_.load(std::memory_order_relaxed);
        if (t == 0) return 0.0;
        return static_cast<double>(obs::MonotonicNanos() - t) * 1e-9;
      });
  registry.RegisterCallbackGauge(
      "fsim_served_error_bound",
      "Max abs error of the published scores vs the exact fixpoint "
      "(+Inf: unknown or not converged)",
      this, [this] {
        const SnapshotPtr snapshot = store_->Acquire();
        return snapshot ? snapshot->meta().error_bound
                        : std::numeric_limits<double>::infinity();
      });
}

RefreshDriver::~RefreshDriver() {
  (void)Stop();
  obs::Registry& registry = obs::Registry::Default();
  registry.UnregisterCallbackGauge("fsim_refresh_queue_depth", this);
  registry.UnregisterCallbackGauge("fsim_publish_age_seconds", this);
  registry.UnregisterCallbackGauge("fsim_served_error_bound", this);
  registry.UnregisterCallbackGauge("fsim_wal_pending", this);
}

Status RefreshDriver::EnableDurability(DurabilityOptions options,
                                       RecoveredState recovered) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability requires a directory");
  }
  std::lock_guard<std::timed_mutex> lock(apply_mu_);
  if (inc_ != nullptr || wal_ != nullptr) {
    return Status::Internal(
        "durability must be attached before Init/Start (the WAL cannot "
        "adopt edits applied without it)");
  }
  durability_ = std::move(options);
  warm_seed_ = std::move(recovered.scores);
  recovered_lsn_ = recovered.snapshot_lsn;
  applied_lsn_ = recovered.snapshot_lsn;
  persisted_lsn_ = recovered.have_snapshot ? recovered.snapshot_lsn : 0;
  replay_tail_.clear();
  replay_tail_.reserve(recovered.tail.size());
  for (const EditRecord& rec : recovered.tail) {
    replay_tail_.push_back(EditOp{rec.graph_index, rec.from, rec.to,
                                  rec.insert, rec.lsn});
  }
  FSIM_ASSIGN_OR_RETURN(wal_,
                        WalWriter::Open(durability_.dir, recovered.next_lsn));
  // Registered only once wal_ exists; wal_ is never reassigned afterwards,
  // so the callback's unlocked read is safe (the registry mutex orders the
  // registration against any concurrent render).
  obs::Registry::Default().RegisterCallbackGauge(
      "fsim_wal_pending",
      "WAL records written but not yet fsync'd (group-commit window)", this,
      [this] { return static_cast<double>(wal_->pending()); });
  return Status::OK();
}

Status RefreshDriver::InitLocked() {
  FSIM_FAILPOINT("serve.refresh.init_solve");
  auto inc = IncrementalFSim::Create(g1_, g2_, config_, inc_options_,
                                     warm_seed_ ? &*warm_seed_ : nullptr);
  if (!inc.ok()) return inc.status();
  inc_ = std::make_unique<IncrementalFSim>(std::move(inc).ValueOrDie());
  warm_seed_.reset();  // the engine owns the state now
  const bool replayed = !replay_tail_.empty();
  if (replayed) {
    stats_.edits_replayed += replay_tail_.size();
    (void)ApplyBatchLocked(replay_tail_);
    replay_tail_.clear();
    replay_tail_.shrink_to_fit();
  }
  PublishLocked();
  if (wal_ != nullptr) {
    // Compact recovery work up front: a durable snapshot at the replayed
    // LSN means the next crash replays only edits newer than this boot.
    const Status persisted = PersistSnapshotLocked();
    if (!persisted.ok()) {
      ++stats_.snapshot_persist_failures;  // WAL still covers everything
    }
  }
  return Status::OK();
}

Status RefreshDriver::Init() {
  {
    std::lock_guard<std::mutex> lock(init_mu_);
    if (init_done_) return Status::OK();
  }
  Status status;
  {
    std::lock_guard<std::timed_mutex> lock(apply_mu_);
    if (inc_ == nullptr) status = InitLocked();
  }
  {
    std::lock_guard<std::mutex> lock(init_mu_);
    if (status.ok()) init_done_ = true;
    init_status_ = status;
  }
  init_cv_.notify_all();
  return status;
}

bool RefreshDriver::ready() const {
  std::lock_guard<std::mutex> lock(init_mu_);
  return init_done_;
}

Status RefreshDriver::init_status() const {
  std::lock_guard<std::mutex> lock(init_mu_);
  return init_status_;
}

Status RefreshDriver::Submit(const EditOp& op) {
  FSIM_FAILPOINT("serve.queue.push");
  if (op.graph_index != 1 && op.graph_index != 2) {
    return Status::InvalidArgument("edit graph index must be 1 or 2");
  }
  // Admission BEFORE the durable append: a shed edit must leave no ghost
  // record for recovery to replay against a client that was told "no".
  Status admitted = queue_.Admit(op);
  if (!admitted.ok()) {
    shed_.fetch_add(1);
    RefreshMetrics::Get().edits_shed->Inc();
    return admitted;
  }
  EditOp stamped = op;
  stamped.submit_ns = obs::MonotonicNanos();
  if (wal_ != nullptr) {
    EditRecord rec;
    rec.graph_index = static_cast<uint8_t>(op.graph_index);
    rec.insert = op.insert;
    rec.from = op.from;
    rec.to = op.to;
    auto lsn = wal_->AppendDurable(rec);
    if (!lsn.ok()) {
      queue_.CancelAdmitted();
      wal_failures_.fetch_add(1);
      return lsn.status();
    }
    stamped.lsn = *lsn;
  }
  if (queue_.CommitAdmitted(stamped)) {
    // Coalesced onto a queued same-edge op: its net effect still applies
    // with the batch, but it never reaches the engine as its own edit.
    queue_coalesced_.fetch_add(1);
    RefreshMetrics::Get().edits_coalesced->Inc();
  }
  submitted_.fetch_add(1);
  return Status::OK();
}

size_t RefreshDriver::ApplyBatchLocked(const std::vector<EditOp>& batch) {
  const RefreshMetrics& metrics = RefreshMetrics::Get();
  FSIM_TRACE_SPAN_ARG("refresh.apply", batch.size());
  const uint64_t drain_ns = obs::MonotonicNanos();
  // Coalesce the burst to one net op per (graph, from, to): later
  // submissions win, order of first appearance is kept (distinct-edge edits
  // commute at the graph level, so this preserves the batch's net effect).
  batch_scratch_.clear();
  std::unordered_map<uint64_t, size_t> last_op[2];
  size_t invalid = 0;
  uint64_t max_lsn = 0;
  for (const EditOp& op : batch) {
    // Every acknowledged LSN in the batch counts as applied once the batch
    // lands, coalesced or not — the engine reflects its net effect.
    if (op.lsn > max_lsn) max_lsn = op.lsn;
    // Replayed/synthetic ops carry no submit stamp and skip the wait
    // histogram.
    if (op.submit_ns != 0 && drain_ns > op.submit_ns) {
      metrics.queue_wait->Record(drain_ns - op.submit_ns);
    }
    if (op.graph_index != 1 && op.graph_index != 2) {
      ++invalid;
      ++stats_.edits_failed;
      metrics.edits_failed->Inc();
      continue;
    }
    auto [it, inserted] = last_op[op.graph_index == 2].try_emplace(
        PairKey(op.from, op.to), batch_scratch_.size());
    if (inserted) {
      batch_scratch_.push_back(op);
    } else {
      batch_scratch_[it->second].insert = op.insert;
    }
  }
  const size_t batch_coalesced = batch.size() - invalid - batch_scratch_.size();
  stats_.edits_coalesced += batch_coalesced;
  metrics.edits_coalesced->Inc(batch_coalesced);

  size_t applied = 0;
  Timer apply_timer;
  const uint64_t apply_start_ns = obs::MonotonicNanos();
  for (const EditOp& op : batch_scratch_) {
    const DynamicGraph& target = op.graph_index == 2 ? inc_->g2() : inc_->g1();
    const bool present = op.from < target.NumNodes() &&
                         op.to < target.NumNodes() &&
                         target.HasEdge(op.from, op.to);
    if (op.insert == present) {  // net no-op against the current graph
      ++stats_.edits_coalesced;
      metrics.edits_coalesced->Inc();
      continue;
    }
    const Status status =
        op.insert ? inc_->InsertEdge(op.graph_index, op.from, op.to)
                  : inc_->RemoveEdge(op.graph_index, op.from, op.to);
    if (status.ok()) {
      ++applied;
    } else {
      ++stats_.edits_failed;
      metrics.edits_failed->Inc();
    }
  }
  metrics.apply_latency->Record(obs::MonotonicNanos() - apply_start_ns);
  metrics.edits_applied->Inc(applied);
  stats_.total_apply_seconds += apply_timer.Seconds();
  stats_.edits_applied += applied;
  edits_since_publish_ += applied;
  edits_since_snapshot_ += applied;
  if (max_lsn > applied_lsn_) applied_lsn_ = max_lsn;
  return applied;
}

void RefreshDriver::PublishLocked() {
  FSIM_FAILPOINT_VOID("serve.publish");
  FSIM_TRACE_SPAN("refresh.publish");
  const uint64_t publish_start_ns = obs::MonotonicNanos();
  Timer timer;
  SnapshotMeta meta;
  meta.version = store_->NextVersion();
  meta.edits_applied = stats_.edits_applied;
  meta.converged = inc_->converged();
  meta.error_bound = inc_->error_bound();
  SharedFSimScores scores;
  {
    FSIM_TRACE_SPAN("refresh.publish.copy");
    scores = FreezeScores(inc_->Snapshot());  // copies the values only
  }
  meta.build_seconds = timer.Seconds();  // + the row ranking, in the ctor
  SnapshotPtr snapshot;
  {
    // The current snapshot shares the engine's key set (unless it is a
    // warm start loaded from disk), so its rank order carries forward and
    // only the rows this batch changed are merged. The engine is idle
    // under apply_mu_, so its pool sorts the rows of a cold build (the
    // first publish).
    FSIM_TRACE_SPAN("refresh.publish.cache");
    const SnapshotPtr previous = store_->Acquire();
    snapshot = std::make_shared<const FSimSnapshot>(
        std::move(scores), policy_.topk_cache_k, meta, previous.get(),
        inc_->pool());
  }
  store_->Publish(std::move(snapshot));
  stats_.last_publish_seconds = timer.Seconds();
  ++stats_.publishes;
  edits_since_publish_ = 0;
  last_publish_time_ = std::chrono::steady_clock::now();
  const uint64_t now_ns = obs::MonotonicNanos();
  RefreshMetrics::Get().publish_latency->Record(now_ns - publish_start_ns);
  last_publish_ns_.store(now_ns, std::memory_order_relaxed);
}

Status RefreshDriver::PersistSnapshotLocked() {
  FSIM_TRACE_SPAN("refresh.persist");
  const uint64_t persist_start_ns = obs::MonotonicNanos();
  Timer timer;
  std::string bytes;
  {
    FSIM_TRACE_SPAN("refresh.persist.encode");
    bytes = EncodeSnapshot(applied_lsn_, inc_->MaterializeG1(),
                           inc_->MaterializeG2(), inc_->Snapshot());
  }
  {
    FSIM_TRACE_SPAN("refresh.persist.write");
    FSIM_RETURN_NOT_OK(WriteSnapshot(durability_.dir, applied_lsn_, bytes));
  }
  ++stats_.snapshot_persists;
  stats_.total_persist_seconds += timer.Seconds();
  RefreshMetrics::Get().persist_latency->Record(obs::MonotonicNanos() -
                                                persist_start_ns);
  persisted_lsn_ = applied_lsn_;
  edits_since_snapshot_ = 0;
  // Retention: rotate so the closed segment becomes coverable, keep the
  // newest snapshots, and drop WAL segments the oldest retained snapshot
  // already covers.
  FSIM_RETURN_NOT_OK(wal_->Rotate());
  FSIM_ASSIGN_OR_RETURN(
      size_t snapshots_removed,
      RemoveObsoleteSnapshots(durability_.dir, durability_.keep_snapshots));
  (void)snapshots_removed;
  FSIM_ASSIGN_OR_RETURN(uint64_t oldest, OldestSnapshotLsn(durability_.dir));
  if (oldest > 0) {
    FSIM_ASSIGN_OR_RETURN(size_t segments_removed,
                          RemoveObsoleteWalSegments(durability_.dir, oldest));
    (void)segments_removed;
  }
  return Status::OK();
}

Result<size_t> RefreshDriver::DrainApplyLocked(bool force_publish) {
  FSIM_FAILPOINT("serve.refresh.apply");
  drain_scratch_.clear();
  queue_.Drain(&drain_scratch_);
  size_t applied = 0;
  if (!drain_scratch_.empty()) {
    applied = ApplyBatchLocked(drain_scratch_);
  }
  // Publishing is only ever due when something changed since the last
  // publish (max_edits_behind == 0 behaves like 1, not like "republish
  // every poll tick").
  bool due = edits_since_publish_ > 0 &&
             edits_since_publish_ >= policy_.max_edits_behind;
  if (!due && edits_since_publish_ > 0) {
    if (force_publish) {
      due = true;
    } else {
      const double behind = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                last_publish_time_)
                                .count();
      due = behind >= policy_.max_seconds_behind;
    }
  }
  if (due) PublishLocked();
  if (wal_ != nullptr && durability_.snapshot_every_edits > 0 &&
      edits_since_snapshot_ >= durability_.snapshot_every_edits) {
    const Status persisted = PersistSnapshotLocked();
    if (!persisted.ok()) {
      // The WAL already holds every acknowledged edit; a failed snapshot
      // only lengthens the next replay. Count it and retry at the next
      // cadence hit.
      ++stats_.snapshot_persist_failures;
    }
  }
  return applied;
}

Result<size_t> RefreshDriver::DrainApply(bool force_publish) {
  if (!ready()) {
    return Status::Internal("refresh engine is not initialized");
  }
  std::lock_guard<std::timed_mutex> lock(apply_mu_);
  return DrainApplyLocked(force_publish);
}

Status RefreshDriver::Flush() {
  return FlushWithin(std::chrono::milliseconds(static_cast<int64_t>(
      policy_.flush_timeout_seconds * 1e3)));
}

Status RefreshDriver::FlushWithin(std::chrono::milliseconds timeout) {
  FSIM_FAILPOINT("serve.flush");
  const bool bounded = timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  {
    std::unique_lock<std::mutex> lock(init_mu_);
    const auto initialized = [this] {
      return init_done_ || stop_.load(std::memory_order_relaxed);
    };
    if (bounded) {
      if (!init_cv_.wait_until(lock, deadline, initialized)) {
        return Status::DeadlineExceeded(
            "refresh engine did not become ready within the flush budget");
      }
    } else {
      init_cv_.wait(lock, initialized);
    }
    if (!init_done_) {
      return init_status_.ok()
                 ? Status::Internal("refresh driver stopped before Init")
                 : init_status_;
    }
  }
  if (bounded) {
    std::unique_lock<std::timed_mutex> lock(apply_mu_, std::defer_lock);
    if (!lock.try_lock_until(deadline)) {
      return Status::DeadlineExceeded(
          "refresh engine is busy past the flush budget (a solve or "
          "persist holds the apply lock)");
    }
    return DrainApplyLocked(/*force_publish=*/true).status();
  }
  FSIM_ASSIGN_OR_RETURN(size_t applied, DrainApply(/*force_publish=*/true));
  (void)applied;
  return Status::OK();
}

void RefreshDriver::Start() {
  if (thread_.joinable()) return;
  stop_.store(false);
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    loop_done_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void RefreshDriver::RunLoop() {
  // Watchdog: a failed initial solve (resource pressure, injected fault)
  // is retried with exponential backoff instead of silently ending
  // background refresh. Queries keep answering from whatever snapshot is
  // published (a warm start or recovery snapshot) the whole time.
  // Stop()-interruptible backoff sleep (a queue wait would return
  // immediately whenever edits are pending, turning backoff into a spin).
  const auto backoff_sleep = [this](double seconds) {
    std::unique_lock<std::mutex> lock(loop_mu_);
    loop_cv_.wait_for(
        lock,
        std::chrono::milliseconds(
            std::max<int64_t>(1, static_cast<int64_t>(seconds * 1e3))),
        [this] { return stop_.load(); });
  };
  double backoff = std::max(policy_.retry_backoff_seconds, 1e-3);
  while (!stop_.load()) {
    if (Init().ok()) break;
    init_retries_.fetch_add(1);
    backoff_sleep(backoff);
    backoff = std::min(backoff * 2, policy_.retry_backoff_max_seconds);
  }
  if (ready()) {
    const auto poll = std::chrono::milliseconds(std::max<int64_t>(
        1, static_cast<int64_t>(policy_.poll_seconds * 1e3)));
    backoff = std::max(policy_.retry_backoff_seconds, 1e-3);
    while (!stop_.load()) {
      queue_.WaitNonEmpty(poll);
      if (stop_.load()) break;
      const auto applied = DrainApply(/*force_publish=*/false);
      if (applied.ok()) {
        backoff = std::max(policy_.retry_backoff_seconds, 1e-3);
      } else {
        // Failed round: edits stay queued (the failpoint/error fires
        // before the drain), so back off and retry rather than spin.
        refresh_failures_.fetch_add(1);
        backoff_sleep(backoff);
        backoff = std::min(backoff * 2, policy_.retry_backoff_max_seconds);
      }
    }
    // Final drain so Stop() leaves the published snapshot current.
    (void)DrainApply(/*force_publish=*/true);
  }
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    loop_done_ = true;
  }
  loop_cv_.notify_all();
}

Status RefreshDriver::Stop(std::chrono::milliseconds timeout) {
  stop_.store(true);
  queue_.Wake();
  init_cv_.notify_all();  // release Flush waiters parked on a failing Init
  loop_cv_.notify_all();  // cut any watchdog backoff sleep short
  if (!thread_.joinable()) return Status::OK();
  if (timeout.count() > 0) {
    std::unique_lock<std::mutex> lock(loop_mu_);
    if (!loop_cv_.wait_for(lock, timeout, [this] { return loop_done_; })) {
      return Status::DeadlineExceeded(
          "refresh loop is still draining past the stop budget (it keeps "
          "running; call Stop again or let the destructor wait)");
    }
  }
  thread_.join();
  return Status::OK();
}

RefreshDriver::Stats RefreshDriver::stats() const {
  std::lock_guard<std::timed_mutex> lock(apply_mu_);
  Stats stats = stats_;
  stats.edits_coalesced += queue_coalesced_.load();
  stats.edits_submitted = submitted_.load();
  stats.edits_shed = shed_.load();
  stats.wal_failures = wal_failures_.load();
  stats.init_retries = init_retries_.load();
  stats.refresh_failures = refresh_failures_.load();
  stats.applied_lsn = applied_lsn_;
  stats.persisted_lsn = persisted_lsn_;
  stats.durable_lsn = wal_ != nullptr ? wal_->durable_lsn() : 0;
  stats.wal_pending = wal_ != nullptr ? wal_->pending() : 0;
  const uint64_t publish_ns = last_publish_ns_.load(std::memory_order_relaxed);
  stats.publish_age_seconds =
      publish_ns != 0
          ? static_cast<double>(obs::MonotonicNanos() - publish_ns) * 1e-9
          : 0.0;
  stats.edits_behind = edits_since_publish_;
  stats.seconds_behind =
      inc_ != nullptr
          ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          last_publish_time_)
                .count()
          : 0.0;
  return stats;
}

Graph RefreshDriver::MaterializeG1() const {
  std::lock_guard<std::timed_mutex> lock(apply_mu_);
  FSIM_CHECK(inc_ != nullptr);
  return inc_->MaterializeG1();
}

Graph RefreshDriver::MaterializeG2() const {
  std::lock_guard<std::timed_mutex> lock(apply_mu_);
  FSIM_CHECK(inc_ != nullptr);
  return inc_->MaterializeG2();
}

}  // namespace fsim
