// Incremental maintenance of fractional χ-simulation scores under edge
// insertions and deletions — a dynamic-graph extension of the paper's
// framework (the paper computes FSimχ from scratch; real deployments face
// evolving graphs).
//
// Idea: Equation 3's update operator F is a sup-norm contraction with factor
// w = w+ + w- < 1 (this is exactly the Theorem 1 convergence argument), so
// the converged scores are the unique fixpoint of F and can be repaired by
// *asynchronous* (chaotic) iteration: after an edit, only the pairs whose
// inputs changed are recomputed, and a change is propagated to the dependent
// pairs only when it exceeds a propagation tolerance τ. The geometric decay
// of propagated changes bounds both the work and the final error:
//
//   ||maintained - exact fixpoint||∞  <=  τ · (1 + w) / (1 - w).
//
// The dependency structure mirrors Equation 3: the score of (u, v) is read by
// the out-direction of every pair in N-(u) x N-(v) and by the in-direction of
// every pair in N+(u) x N+(v).
//
// Cost model — every per-edit phase is O(affected degree), independent of
// |V| + |E|:
//  * the graphs are held as DynamicGraph (graph/dynamic_graph.h), so the
//    edge edit itself patches two sorted adjacency lists in O(deg);
//  * the pair-graph CSR neighbor index (core/incremental_index.h) is
//    maintained, not rebuilt: an edit to edge (a, b) in graph 1 invalidates
//    only the out-spans of pairs (a, *) and the in-spans of pairs (b, *)
//    (symmetrically (*, a) / (*, b) for graph 2), and exactly those spans
//    are re-staged — O(|N(u)|·|N(v)|) classify work per affected pair, the
//    same order as the one re-evaluation the edit forces anyway;
//  * evaluation and dependent-propagation both run over the index
//    (DirectionScoreIndexed + contiguous ref walks) instead of per-neighbor
//    hash probes and label checks; when the index exceeds its memory budget
//    the engine falls back to the hash path with identical results.
//
// Restrictions:
//  * upper-bound updating must be off (pruning decisions are edge-dependent,
//    so the maintained candidate set would change under edits);
//  * edits are edge-level; the node set and labels are fixed (the θ-filtered
//    candidate set depends only on labels, so it stays valid — which is also
//    what keeps the maintained index's ref values stable under edits).
//
// Verified against full recomputation and against the hash fallback by the
// property tests in tests/dynamic_test.cc; the work savings are quantified
// by bench/exp_incremental (BENCH_incremental.json).
#ifndef FSIM_CORE_INCREMENTAL_H_
#define FSIM_CORE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/fsim_config.h"
#include "core/fsim_scores.h"
#include "core/incremental_index.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "label/label_similarity.h"
#include "matching/greedy_matching.h"

namespace fsim {

/// Tuning knobs for the incremental engine.
struct IncrementalOptions {
  /// Score changes smaller than this (τ) are absorbed instead of
  /// propagated; propagation adds at most τ * (1 + w) / (1 - w) to the
  /// solve's own ε * w / (1 - w) error (w = w+ + w-). 0 derives τ from the
  /// solve's epsilon as ε * w / (10 * (1 + w)), so propagation spends a
  /// tenth of the solve's error budget; a positive value overrides.
  /// Negative and non-finite values are rejected.
  double propagation_tolerance = 0.0;

  /// Safety valve: an edit that recomputes more pair-updates than this is
  /// truncated and returns Internal (possible only in pathological
  /// non-contractive corner cases of the greedy matching realization). The
  /// updates performed before the cap are kept, and the snapshot reports
  /// the state as not converged.
  uint64_t max_updates_per_edit = 200'000'000;
};

/// Work report for one edit.
struct EditStats {
  size_t seeded_pairs = 0;      // pairs whose inputs the edit touched directly
  size_t recomputed = 0;        // total pair recomputations performed
  size_t changed = 0;           // recomputations that changed the score > τ
  uint32_t waves = 0;           // propagation waves executed (capped at the
                                // Corollary 1 bound ceil(log_w τ) + 2)
  size_t restaged_spans = 0;    // neighbor-index spans re-staged by the edit
  bool truncated = false;       // hit max_updates_per_edit or the wave cap;
                                // the snapshot then reports converged=false
  double graph_rebuild_seconds = 0.0;  // O(deg) adjacency patch
  double index_patch_seconds = 0.0;    // O(deg) neighbor-index span re-stage
  double propagate_seconds = 0.0;
};

/// A converged FSimχ computation that can be repaired in place after edge
/// edits, instead of recomputed from scratch.
class IncrementalFSim {
 public:
  /// Builds the candidate-pair set, runs the iterative computation to the
  /// fixpoint (synchronous Jacobi sweeps, as ComputeFSim), and retains the
  /// state needed for localized repair.
  ///
  /// Precision is one contract, reported by error_bound(): the initial
  /// solve stops within ε * w / (1 - w) of the fixpoint (Corollary 1), and
  /// every edit repair adds at most τ * (1 + w) / (1 - w). With the default
  /// options τ is derived from `config.epsilon` (see IncrementalOptions), so
  /// the served bound is 1.1x the solve's own and an edit re-evaluates only
  /// the pairs whose change matters at that precision.
  ///
  /// `warm_seed` (optional) primes the solve with previously converged
  /// scores — the crash-recovery path (serve/recovery.h) passes the scores
  /// loaded from the latest durable snapshot so the initial solve converges
  /// in a sweep or two instead of a cold fixpoint run. The seed is used only
  /// when its keyset matches the freshly enumerated candidate set exactly
  /// (same graphs + config ⇒ same candidates); on any mismatch the solve
  /// silently falls back to the cold FSim^0 initialization, so a stale or
  /// foreign seed can never corrupt the fixpoint (the contraction drives
  /// any starting point in [0,1] to the same result).
  static Result<IncrementalFSim> Create(Graph g1, Graph g2, FSimConfig config,
                                        IncrementalOptions options = {},
                                        const FSimScores* warm_seed = nullptr);

  /// Adds the directed edge from -> to in graph `graph_index` (1 or 2) and
  /// re-converges the affected scores. O(affected degree), not O(|V|+|E|).
  Status InsertEdge(int graph_index, NodeId from, NodeId to);

  /// Removes the directed edge from -> to in graph `graph_index` (1 or 2)
  /// and re-converges the affected scores.
  Status RemoveEdge(int graph_index, NodeId from, NodeId to);

  /// FSimχ(u, v) under the current graphs; 0 for non-candidate pairs.
  double Score(NodeId u, NodeId v) const {
    uint32_t idx = key_set_->index.Find(PairKey(u, v));
    return idx == FlatPairMap::kNotFound ? 0.0 : values_[idx];
  }

  /// True if (u, v) is in the maintained candidate set.
  bool Contains(NodeId u, NodeId v) const {
    return key_set_->index.Find(PairKey(u, v)) != FlatPairMap::kNotFound;
  }

  size_t NumPairs() const { return key_set_->keys.size(); }

  /// An immutable snapshot of the current scores. It shares the engine's
  /// key set (keys, pair index, row ranges: fixed since Create, because
  /// edge edits never change the θ-compatible pair set) and copies only
  /// the values, so snapshots of one engine all share one key_set().
  /// stats().converged faithfully reports whether every propagation since
  /// Create ran to quiescence (no truncation by max_updates_per_edit or the
  /// wave cap).
  FSimScores Snapshot() const;

  /// The evolving graphs (edit-capable adjacency; read API mirrors Graph).
  const DynamicGraph& g1() const { return g1_; }
  const DynamicGraph& g2() const { return g2_; }

  /// Materialized immutable CSR copies of the current graphs, for handing
  /// to the batch engines (e.g. verification against ComputeFSim).
  Graph MaterializeG1() const { return g1_.ToGraph(); }
  Graph MaterializeG2() const { return g2_.ToGraph(); }

  const FSimConfig& config() const { return config_; }

  /// The engine's worker pool; null at one thread. Free for other work
  /// between engine calls (a pool runs one region at a time).
  ThreadPool* pool() const { return pool_.get(); }

  /// False once any propagation was truncated (see EditStats::truncated) or
  /// the initial solve stopped above epsilon.
  bool converged() const { return converged_; }

  /// The effective propagation tolerance τ (derived or overridden).
  double propagation_tolerance() const {
    return options_.propagation_tolerance;
  }

  /// Upper bound on ||maintained scores - exact fixpoint||∞:
  /// ε * w / (1 - w) + τ * (1 + w) / (1 - w), or +∞ once converged() is
  /// false (no bound holds after a truncated repair).
  double error_bound() const;

  /// True while the maintained pair-graph CSR neighbor index is active
  /// (false: over budget at Create; evaluation uses hash lookups).
  bool uses_neighbor_index() const { return nbr_index_.enabled(); }

  /// Work report of the most recent InsertEdge/RemoveEdge.
  const EditStats& last_edit_stats() const { return last_edit_; }

 private:
  IncrementalFSim(const Graph& g1, const Graph& g2, FSimConfig config,
                  IncrementalOptions options);

  NeighborIndexEnv IndexEnv() const {
    return NeighborIndexEnv{g1_, g2_, key_set_->index, lsim_};
  }

  // Direction-dirtiness bits: influence arrives targeted at one direction
  // (a dependent reached through its out-direction only needs that
  // direction recomputed), so each pair caches its two direction scores and
  // a dequeue recomputes only the dirty ones. Reusing a clean cached
  // direction is sound: any of its inputs that moved either pushed
  // influence here (marking it dirty) or was absorbed sub-τ at the source —
  // which the τ·(1+w)/(1-w) budget already accounts for.
  static constexpr uint8_t kDirtyOut = 1;
  static constexpr uint8_t kDirtyIn = 2;

  /// One direction's Equation 3 contribution of pair i against the current
  /// score table (through the maintained index when enabled; bit-identical
  /// either way). dir is IncrementalNeighborIndex::kOut or kIn. `scratch`
  /// is the caller's matching workspace (per worker under the pool).
  double ComputeDirection(size_t i, int dir, MatchingScratch* scratch);

  /// The Equation 3 value of pair i, recomputing only the directions in
  /// `dirty` and reusing the cached scores for the rest.
  double EvaluateDirty(size_t i, uint8_t dirty, MatchingScratch* scratch);

  /// Runs synchronous sweeps to convergence (the initial solve). Honors
  /// FSimConfig::active_set: with the maintained index live, sweeps after
  /// the first evaluate only the pairs with changed inputs (the batch
  /// engines' delta-driven frontier), so the serving layer's warm-start
  /// background solve inherits the frozen-pair skipping. Sweeps run on
  /// pool_ when config_.num_threads > 1; the Jacobi evaluations and the
  /// serial absorb phase make the result bit-identical at any thread count.
  void SolveFull();

  /// Chaotic iteration from the seeded worklist until quiescent. With
  /// num_threads > 1 delegates to PropagateWaves.
  Status Propagate();

  /// Wave-parallel repair: each wave is evaluated as one Jacobi parallel
  /// region against the pre-wave score table (big-influence-first via
  /// ThreadPool::ParallelForFrontier, per-worker matching scratch), then
  /// committed and propagated serially in wave order, so the result is
  /// deterministic at any thread count. Waves below a small cutoff keep the
  /// serial chaotic ordering (same-wave absorption matters most in the
  /// propagation tail, and a parallel region would not pay for itself);
  /// the cutoff test depends only on wave content, so determinism holds.
  Status PropagateWaves();

  /// Shared tail of Propagate/PropagateWaves: resets worklist leftovers,
  /// records EditStats, and maps truncation to the returned Status.
  Status FinishPropagate(uint64_t recomputed, uint64_t changed, uint32_t wave,
                         bool wave_capped, bool update_capped,
                         double elapsed_seconds);

  /// The Corollary 1 wave cap ceil(log_w tau) + 2 (see Propagate).
  uint32_t MaxWaves() const;

  /// Seeds every maintained pair (x, *) for x in {a, b} of graph 1, or
  /// (*, x) for graph 2.
  void SeedEndpointPairs(int graph_index, NodeId a, NodeId b);

  /// Applies the graph-side edit, re-stages the invalidated index spans and
  /// seeds the worklist.
  Status ApplyEdit(int graph_index, NodeId from, NodeId to, bool insert);

  /// Residual-driven propagation: a change of magnitude `delta` at pair i
  /// moves a dependent's direction sum by at most c * delta (the mapping
  /// operators are 1-Lipschitz per entry; c = 2 for the both-sides mapping,
  /// whose entries feed a row and a column maximum), hence the dependent's
  /// score by at most w± * c * delta / Ωχ of that dependent's direction.
  /// That bound is *accumulated* per dependent (influence_factor_out_/in_
  /// hold the precomputed c / Ωχ, maintained under edits alongside the index
  /// spans) and the dependent is re-evaluated only once its pending
  /// influence exceeds the tolerance — so the τ·(1+w)/(1-w) accuracy
  /// guarantee is preserved while hub-adjacent pairs (large Ωχ) absorb far
  /// more sub-threshold traffic. With the index enabled the dependents are
  /// read off pair i's own spans (the in-span refs are exactly the pairs
  /// reading i through their out-direction, and vice versa); the fallback
  /// walks N±(u) x N±(v) with hash probes.
  void PushDependents(size_t i, double delta);
  void AddPendingOut(uint32_t idx, double influence);
  void AddPendingIn(uint32_t idx, double influence);
  void MaybeEnqueue(uint32_t idx);

  DynamicGraph g1_;
  DynamicGraph g2_;
  FSimConfig config_;
  IncrementalOptions options_;
  OperatorConfig op_;  // config_.operators(), hoisted out of Evaluate
  LabelSimilarityCache lsim_;

  // The candidate pairs (u-major keys, pair index, per-u row ranges over
  // every node of graph 1): built once in Create, shared with every
  // Snapshot(). Row ranges seed and re-stage edits in graph 1.
  SharedPairKeySet key_set_;
  std::vector<double> values_;  // values_[i] scores key_set_->keys[i]
  // Per-pair constant Equation 3 tail (1 - w+ - w-) * L(u, v): labels are
  // fixed under edits, so it never changes.
  std::vector<double> const_term_;
  // CSR of store indices grouped by v. Used to seed and re-stage edits in
  // graph 2.
  std::vector<uint32_t> col_offsets_;
  std::vector<uint32_t> col_pairs_;

  // Maintained pair-graph CSR neighbor index (delta-patched under edits).
  IncrementalNeighborIndex nbr_index_;

  // Per-pair sharpened influence factors c / Ωχ(S1, S2) for each direction
  // (see PushDependents); re-derived for the affected rows/columns on every
  // edit, since Ωχ depends on the endpoint degrees.
  std::vector<double> influence_factor_out_;
  std::vector<double> influence_factor_in_;

  // Cached per-direction scores; the invariant values_[i] ==
  // w+ * out_cache_[i] + w- * in_cache_[i] + const_term_[i] holds for every
  // pair outside the worklist (pin_diagonal pairs excepted — they are
  // constant 1 and never read their caches).
  std::vector<double> out_cache_;
  std::vector<double> in_cache_;

  // Worklist state (kept allocated across edits). pending_out_/in_[i]
  // accumulate the upper bound on how much pair i's next evaluation of that
  // direction can move, given the input changes seen since it was last
  // evaluated; dirty_dir_[i] marks directions whose *inputs changed shape*
  // (edit seeding), which pending magnitudes cannot express.
  std::vector<uint32_t> queue_;
  std::vector<uint8_t> in_queue_;
  std::vector<uint8_t> dirty_dir_;
  std::vector<double> pending_out_;
  std::vector<double> pending_in_;
  std::vector<uint32_t> wave_scratch_;  // Propagate's wave partition buffer
  size_t queue_head_ = 0;

  // Wave-parallel scratch (PropagateWaves; all keyed by store index).
  std::vector<double> wave_fresh_;    // Jacobi results awaiting commit
  std::vector<float> wave_weight_;    // pending influence at wave start
  std::vector<uint8_t> wave_dirty_;   // dirty bits snapshotted at wave start

  // Present when config_.num_threads > 1 (heap-held so the engine stays
  // movable); scratch_ has one matching workspace per pool worker.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<MatchingScratch> scratch_;
  EditStats last_edit_;
  bool converged_ = false;
};

}  // namespace fsim

#endif  // FSIM_CORE_INCREMENTAL_H_
