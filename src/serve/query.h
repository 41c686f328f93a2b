// Concurrent query API over the published snapshots: every call reads the
// current snapshot once (Run through the thread's pin, RunBatch through one
// owning Acquire) and answers entirely against it, so a single query — and
// every query of one batch — observes one consistent score version even
// while the refresh driver publishes new ones underneath.
//
// Deadline budgets (overload degradation, docs/serving.md): a query may
// carry a time budget. Once the budget is exhausted — typically midway
// through a large batch — long answers are cut short instead of blowing
// the deadline: TOPK and THRESH return at most the snapshot's cache_k best
// entries, and the result is marked `degraded` when that left an entry out.
// PAIR lookups are O(1) and never degrade.
#ifndef FSIM_SERVE_QUERY_H_
#define FSIM_SERVE_QUERY_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace fsim {

/// One serving request.
struct Query {
  enum class Kind {
    kPair,       // FSimχ(u, v)
    kTopK,       // k best v for u
    kThreshold,  // all v with FSimχ(u, v) >= tau
  };
  Kind kind = Kind::kPair;
  NodeId u = 0;
  NodeId v = 0;     // kPair
  size_t k = 0;     // kTopK
  double tau = 0.0; // kThreshold
  /// Deadline budget in milliseconds; 0 = unlimited. Run() starts the
  /// clock on entry; RunBatch shares one clock across the whole batch.
  double budget_ms = 0.0;
};

/// The answer, stamped with the snapshot version that produced it.
struct QueryResult {
  Query::Kind kind = Query::Kind::kPair;
  uint64_t version = 0;
  double score = 0.0;                              // kPair
  std::vector<std::pair<NodeId, double>> entries;  // kTopK / kThreshold
  /// True when the deadline budget cut the answer to cache_k entries and
  /// that left out an entry the full answer holds.
  bool degraded = false;
};

/// Stateless facade over a SnapshotStore. Safe to share across any number
/// of reader threads. Run reads through SnapshotStore::Pin: while the
/// published version is unchanged, a query's only access to the store is
/// one load, it never waits and writes nothing the store shares. RunBatch
/// takes one owning Acquire per batch, which can spin briefly on the
/// atomic's lock bit (see SnapshotStore). An optional ThreadPool fans large
/// RunBatch calls out across workers — sound because every query of a
/// batch reads the same acquired snapshot and writes only its own result
/// slot. The pool must not be shared with concurrent ParallelFor callers
/// (ThreadPool regions are exclusive); single queries never touch it.
class QueryEngine {
 public:
  using Clock = std::chrono::steady_clock;

  /// The per-verb serve latency histogram family (obs/metrics.h); label
  /// values are the protocol verb names plus "BATCH" for whole batches.
  static constexpr char kLatencyFamily[] = "fsim_serve_query_seconds";

  explicit QueryEngine(const SnapshotStore* store, ThreadPool* pool = nullptr);

  /// Answers one query against the current snapshot, read through this
  /// thread's pin (SnapshotStore::Pin; the pin may keep one superseded
  /// snapshot alive until the thread's next query or exit). NotFound when
  /// no snapshot has been published yet. Honors query.budget_ms.
  Result<QueryResult> Run(const Query& query) const;

  /// Answers all queries against ONE acquired snapshot (cross-query
  /// consistency within the batch). NotFound when no snapshot exists.
  /// Batches of at least kParallelBatchMin queries run on the pool when one
  /// was supplied; results are in query order either way. `budget_ms` (0 =
  /// unlimited) is one shared deadline for the whole batch: queries
  /// evaluated after it expires are cut to cache_k entries.
  Result<std::vector<QueryResult>> RunBatch(std::span<const Query> queries,
                                            double budget_ms = 0.0) const;

  /// The deadline `budget_ms` from now; time_point::max() (none) for a
  /// budget that is not positive, is NaN, or lies centuries out.
  static Clock::time_point DeadlineFor(double budget_ms);

  /// Below this batch size the pool dispatch costs more than the queries.
  static constexpr size_t kParallelBatchMin = 64;

  /// The BATCH latency handle, shared with FSimService::HandleBatch so the
  /// protocol's streaming batch path lands in the same histogram as
  /// RunBatch.
  obs::Histogram* batch_latency() const { return latency_batch_; }

  /// The per-query evaluation, usable directly by callers that manage
  /// snapshot lifetime themselves. Cuts TOPK and THRESH answers to cache_k
  /// entries once `deadline` has passed (the default never does).
  static QueryResult Answer(const FSimSnapshot& snapshot, const Query& query,
                            Clock::time_point deadline =
                                Clock::time_point::max());

 private:
  const SnapshotStore* store_;
  ThreadPool* pool_;
  // Latency histogram handles, resolved once at construction (registry
  // lookups are mutex-guarded; recording through the handles is not).
  obs::Histogram* latency_pair_;
  obs::Histogram* latency_topk_;
  obs::Histogram* latency_thresh_;
  obs::Histogram* latency_batch_;
};

}  // namespace fsim

#endif  // FSIM_SERVE_QUERY_H_
