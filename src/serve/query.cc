#include "serve/query.h"

#include <algorithm>

#include "obs/trace.h"

namespace fsim {

namespace {

constexpr char kLatencyHelp[] =
    "End-to-end query latency by verb (snapshot pin or acquire + answer)";

}  // namespace

QueryEngine::Clock::time_point QueryEngine::DeadlineFor(double budget_ms) {
  if (!(budget_ms > 0.0)) return Clock::time_point::max();  // also NaN
  const Clock::time_point now = Clock::now();
  // A budget past half the clock's remaining range (centuries) never
  // expires; below it the nanosecond conversion and the sum cannot
  // overflow.
  const std::chrono::duration<double, std::milli> budget(budget_ms);
  if (budget >= (Clock::time_point::max() - now) / 2) {
    return Clock::time_point::max();
  }
  return now + std::chrono::duration_cast<Clock::duration>(budget);
}

QueryEngine::QueryEngine(const SnapshotStore* store, ThreadPool* pool)
    : store_(store), pool_(pool) {
  obs::Registry& registry = obs::Registry::Default();
  const auto histogram = [&](const char* verb) {
    return registry.GetHistogram(kLatencyFamily, kLatencyHelp,
                                 obs::Histogram::Unit::kNanoseconds, "verb",
                                 verb);
  };
  latency_pair_ = histogram("PAIR");
  latency_topk_ = histogram("TOPK");
  latency_thresh_ = histogram("THRESH");
  latency_batch_ = histogram("BATCH");
}

QueryResult QueryEngine::Answer(const FSimSnapshot& snapshot,
                                const Query& query,
                                Clock::time_point deadline) {
  QueryResult result;
  result.kind = query.kind;
  result.version = snapshot.meta().version;
  const bool over_budget = deadline != Clock::time_point::max() &&
                           Clock::now() >= deadline;
  switch (query.kind) {
    case Query::Kind::kPair:
      // O(1) hash lookup — cheaper than any degradation bookkeeping.
      result.score = snapshot.PairScore(query.u, query.v);
      break;
    case Query::Kind::kTopK:
    case Query::Kind::kThreshold: {
      // The full answer is a prefix of the ranked row; over budget it is
      // cut to cache_k entries, and degraded iff that left one out.
      const size_t full =
          query.kind == Query::Kind::kTopK
              ? std::min(query.k, snapshot.RankedRow(query.u).size())
              : snapshot.CountAtLeast(query.u, query.tau);
      const size_t n = over_budget ? std::min(full, snapshot.cache_k()) : full;
      result.entries = snapshot.TopK(query.u, n);
      result.degraded = n < full;
      break;
    }
  }
  return result;
}

Result<QueryResult> QueryEngine::Run(const Query& query) const {
  obs::Histogram* latency =
      query.kind == Query::Kind::kPair
          ? latency_pair_
          : (query.kind == Query::Kind::kTopK ? latency_topk_
                                              : latency_thresh_);
  obs::ScopedLatencyTimer timer(latency);
  const FSimSnapshot* snapshot = store_->Pin();
  if (snapshot == nullptr) {
    return Status::NotFound("no snapshot published yet");
  }
  return Answer(*snapshot, query, DeadlineFor(query.budget_ms));
}

Result<std::vector<QueryResult>> QueryEngine::RunBatch(
    std::span<const Query> queries, double budget_ms) const {
  // One observation for the whole batch — per-query timing inside the
  // fan-out lambda would put two clock reads around O(1) answers.
  obs::ScopedLatencyTimer timer(latency_batch_);
  FSIM_TRACE_SPAN_ARG("serve.batch", queries.size());
  SnapshotPtr snapshot = store_->Acquire();
  if (snapshot == nullptr) {
    return Status::NotFound("no snapshot published yet");
  }
  const Clock::time_point deadline = DeadlineFor(budget_ms);
  std::vector<QueryResult> results(queries.size());
  if (pool_ != nullptr && queries.size() >= kParallelBatchMin) {
    // Top-k/threshold answers allocate entry vectors, so chunks are sized
    // for rebalancing (a mixed batch's expensive queries cluster).
    constexpr size_t kBatchGrain = 16;
    pool_->ParallelForChunked(
        queries.size(), kBatchGrain,
        [&](int /*worker*/, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            results[i] = Answer(*snapshot, queries[i], deadline);
          }
        });
  } else {
    for (size_t i = 0; i < queries.size(); ++i) {
      results[i] = Answer(*snapshot, queries[i], deadline);
    }
  }
  return results;
}

}  // namespace fsim
