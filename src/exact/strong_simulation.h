// Strong simulation (Ma et al. [1,6]) for subgraph pattern matching: a match
// of query Q at data node w exists if the ball G[w, δQ] (induced subgraph of
// the nodes within the query's diameter δQ of w) admits a maximum simulation
// R between Q and the ball that covers every query node and contains w.
//
// Implementation note: R must be contained in the global maximum simulation
// between Q and G, so centers are pre-filtered to nodes that globally
// simulate some query node — the standard optimization that keeps the
// per-ball fixpoint affordable.
#ifndef FSIM_EXACT_STRONG_SIMULATION_H_
#define FSIM_EXACT_STRONG_SIMULATION_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace fsim {

/// One strong-simulation match (one qualifying ball).
struct StrongSimMatch {
  /// The ball center in data-graph ids.
  NodeId center = kInvalidNode;
  /// For each query node q, the data nodes (parent ids) simulating q inside
  /// the ball.
  std::vector<std::vector<NodeId>> query_matches;
  /// Union of all matched data nodes (sorted, deduplicated).
  std::vector<NodeId> matched_nodes;
};

struct StrongSimOptions {
  /// Stop after this many matches (0 = unbounded).
  size_t max_results = 0;
  /// Skip balls larger than this many nodes (0 = unbounded). Guards against
  /// degenerate balls that span a hub-dominated graph.
  size_t max_ball_size = 0;
  /// Fraction of query nodes that must be matched inside the ball for it to
  /// qualify. 1.0 is Ma et al.'s original criterion ("R contains all nodes
  /// in Q"); lower values allow partial matches — the reproduction's
  /// noise-tolerant relaxation used when exact matches cannot exist
  /// (bench/exp_table6.cc falls back to 0.6 when the exact criterion finds
  /// no match in a noisy data graph).
  double min_coverage = 1.0;
  /// Evenly subsample the candidate centers down to this many (0 = all).
  /// Bounds the cost of partial-coverage runs, whose label-based center
  /// filter is much weaker than the exact global-simulation filter.
  size_t max_centers = 0;
};

/// All strong-simulation matches of `query` in `data` (graphs must share a
/// LabelDict). Matches are ordered by ascending |matched_nodes| (tighter
/// matches first), then by center id.
std::vector<StrongSimMatch> StrongSimulation(const Graph& query,
                                             const Graph& data,
                                             const StrongSimOptions& opts = {});

}  // namespace fsim

#endif  // FSIM_EXACT_STRONG_SIMULATION_H_
