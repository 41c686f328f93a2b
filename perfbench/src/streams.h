// Seeded inputs of the benchmark. The workload seed is the only source of
// randomness: it regenerates the registry graph shapes, the edit stream and
// the query stream, so one seed always yields the same inputs.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/fsim_scores.h"
#include "datasets/dataset_registry.h"
#include "graph/graph.h"
#include "serve/query.h"

namespace perfbench {

/// The registry shape `name` with DatasetSpec::seed replaced by one derived
/// from the workload seed, and its node and edge counts times `scale`
/// (label count, degree caps and skew unchanged).
fsim::DatasetSpec SeededSpec(std::string_view name, uint64_t seed,
                             double scale = 1.0);

/// One edge edit to graph 1.
struct EditStep {
  bool insert = true;
  fsim::NodeId from = 0;
  fsim::NodeId to = 0;

  bool operator==(const EditStep&) const = default;
};

/// `n` edits to graph 1 of a pair that starts as (g, g), each of which takes
/// effect against the graph as the earlier edits left it: even steps insert
/// an absent edge, odd steps remove a present one. No edit is a net no-op,
/// so none coalesces away in the refresh queue.
std::vector<EditStep> MakeEditStream(const fsim::Graph& g, uint64_t seed,
                                     size_t n);

/// The reads workload's query mix, drawn on the fly (nothing is
/// materialized): ~90% PAIR over maintained pairs, 5% THRESH, 4% TOPK with
/// k <= cache_k (served from the snapshot's cache) and 1% TOPK with
/// k > cache_k (row selection).
class QueryStream {
 public:
  QueryStream(uint64_t seed, uint32_t reader, const fsim::FSimScores* scores,
              size_t cache_k);
  fsim::Query Next();

 private:
  fsim::Rng rng_;
  const std::vector<uint64_t>* keys_;
  size_t cache_k_;
};

/// Paces a fixed number of publishes by reader progress: publish i (0-based)
/// is released once the readers together have completed
/// (i + 1) * queries_per_publish queries. The publisher blocks between
/// publishes; it never spins.
class PublishPacer {
 public:
  PublishPacer(uint64_t queries_per_publish, size_t publishes)
      : step_(queries_per_publish == 0 ? 1 : queries_per_publish),
        publishes_(publishes) {}

  /// Readers report completed queries (in batches, to keep this off the
  /// per-query path).
  void AddProgress(uint64_t queries);
  /// Blocks the publisher until publish `i` is due; false once cancelled.
  bool WaitForTurn(size_t i);
  /// Marks publish `i` done; the last one sets done().
  void MarkPublished(size_t i);
  void Cancel();
  bool done() const;
  size_t publishes() const { return publishes_; }

 private:
  const uint64_t step_;
  const size_t publishes_;
  mutable std::mutex mu_;  // guards: progress_, published_, cancelled_
  std::condition_variable cv_;
  uint64_t progress_ = 0;
  size_t published_ = 0;
  bool cancelled_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
