#include "streams.h"

#include <cmath>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace perfbench {

fsim::DatasetSpec SeededSpec(std::string_view name, uint64_t seed,
                             double scale) {
  auto spec = fsim::DatasetSpecByName(name);
  FSIM_CHECK(spec.ok()) << spec.status().ToString();
  fsim::DatasetSpec out = *spec;
  out.seed = fsim::Mix64(seed ^ out.seed);
  out.nodes = static_cast<uint32_t>(std::lround(out.nodes * scale));
  out.edges = static_cast<uint64_t>(
      std::llround(static_cast<double>(out.edges) * scale));
  return out;
}

std::vector<EditStep> MakeEditStream(const fsim::Graph& g, uint64_t seed,
                                     size_t n) {
  const auto nodes = static_cast<fsim::NodeId>(g.NumNodes());
  std::set<std::pair<fsim::NodeId, fsim::NodeId>> edges;
  for (fsim::NodeId u = 0; u < nodes; ++u) {
    for (fsim::NodeId v : g.OutNeighbors(u)) edges.emplace(u, v);
  }
  fsim::Rng rng(fsim::Mix64(seed ^ 0xED17ED17ULL));
  std::vector<EditStep> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    EditStep step;
    step.insert = i % 2 == 0 || edges.empty();
    if (step.insert) {
      do {
        step.from = static_cast<fsim::NodeId>(rng.NextBounded(nodes));
        step.to = static_cast<fsim::NodeId>(rng.NextBounded(nodes));
      } while (step.from == step.to || edges.count({step.from, step.to}) > 0);
      edges.emplace(step.from, step.to);
    } else {
      auto it = edges.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(edges.size())));
      step.from = it->first;
      step.to = it->second;
      edges.erase(it);
    }
    stream.push_back(step);
  }
  return stream;
}

QueryStream::QueryStream(uint64_t seed, uint32_t reader,
                         const fsim::FSimScores* scores, size_t cache_k)
    : rng_(fsim::Mix64(seed ^ (0x51E5ULL + reader))),
      keys_(&scores->keys()),
      cache_k_(cache_k) {
  FSIM_CHECK(!keys_->empty());
}

fsim::Query QueryStream::Next() {
  const uint64_t key = (*keys_)[rng_.NextBounded(keys_->size())];
  fsim::Query q;
  q.u = static_cast<fsim::NodeId>(key >> 32);
  q.v = static_cast<fsim::NodeId>(key & 0xFFFFFFFFu);
  const uint64_t roll = rng_.NextBounded(1000);
  if (roll < 900) {
    q.kind = fsim::Query::Kind::kPair;
  } else if (roll < 950) {
    q.kind = fsim::Query::Kind::kThreshold;
    q.tau = 0.6 + 0.4 * rng_.NextDouble();
  } else if (roll < 990) {
    q.kind = fsim::Query::Kind::kTopK;
    q.k = 1 + rng_.NextBounded(cache_k_);
  } else {
    q.kind = fsim::Query::Kind::kTopK;
    q.k = cache_k_ + 1 + rng_.NextBounded(3 * cache_k_);
  }
  return q;
}

void PublishPacer::AddProgress(uint64_t queries) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t before = progress_ / step_;
    progress_ += queries;
    wake = progress_ / step_ != before;
  }
  if (wake) cv_.notify_all();
}

bool PublishPacer::WaitForTurn(size_t i) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return cancelled_ || progress_ >= (i + 1) * step_; });
  return !cancelled_;
}

void PublishPacer::MarkPublished(size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  published_ = i + 1;
}

void PublishPacer::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
  }
  cv_.notify_all();
}

bool PublishPacer::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_ || published_ >= publishes_;
}

}  // namespace perfbench
