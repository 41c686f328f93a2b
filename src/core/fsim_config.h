// Configuration of the FSimχ computation framework (§3-§4). A config selects
// the simulation variant (which fixes the mapping/normalizing operators of
// Table 3), the weighting factors w+ / w-, the label function L(·), the two
// optimizations (label-constrained mapping θ, upper-bound updating α/β), the
// convergence policy and the degree of parallelism. Factory functions
// produce the SimRank and RoleSim configurations of §4.3.
#ifndef FSIM_CORE_FSIM_CONFIG_H_
#define FSIM_CORE_FSIM_CONFIG_H_

#include <cstdint>
#include <optional>

#include "exact/exact_simulation.h"
#include "label/label_similarity.h"

namespace fsim {

/// How the mapping operator Mχ selects node pairs from S1 x S2 (Table 3).
enum class MappingKind {
  /// fs: every x in S1 maps to its best compatible y (simple simulation).
  kMaxPerRow,
  /// fdp: injective mapping of min(|S1|,|S2|) nodes; vacuously perfect when
  /// S1 is empty (degree-preserving simulation).
  kInjectiveRow,
  /// fb: every x in S1 maps to its best y AND every y in S2 maps to its best
  /// x (bisimulation).
  kMaxBothSides,
  /// fbj: injective mapping from the smaller side into the larger;
  /// vacuously perfect only when both sides are empty (bijective
  /// simulation, RoleSim).
  kInjectiveSym,
  /// All pairs S1 x S2 (the SimRank configuration of §4.3).
  kProduct,
};

/// The normalizing operator Ωχ (Table 3).
enum class OmegaKind {
  kSizeS1,    // |S1|            (s, dp)
  kSumSizes,  // |S1| + |S2|     (b)
  kGeoMean,   // sqrt(|S1||S2|)  (bj)
  kMaxSize,   // max(|S1|,|S2|)  (RoleSim)
  kProduct,   // |S1| * |S2|     (SimRank)
};

/// How the injective operators realize the maximum mapping (C3 of
/// Theorem 1). The paper uses the greedy ½-approximate Hungarian [23];
/// kHungarian is the exact O(n^3) algorithm under which C3 (and hence the
/// simulation-definiteness proof) holds exactly.
enum class MatchingAlgo { kGreedy, kHungarian };

/// A (mapping, normalizing) operator pair.
struct OperatorConfig {
  MappingKind mapping = MappingKind::kInjectiveSym;
  OmegaKind omega = OmegaKind::kGeoMean;
};

/// How the iterate loop schedules pair evaluations across sweeps
/// (docs/performance.md "Active-set iteration"). The fixpoint is monotone
/// from the all-ones-shaped seed, so after the first few sweeps most pairs'
/// N±xN± inputs have stopped moving; the active-set driver evaluates only
/// the pairs with at least one changed input — found by walking the changed
/// pair's own CSR spans in reverse (the refs of the in-span are exactly the
/// pairs reading it through their out-direction, and vice versa) — and
/// carries every other score forward for free.
enum class ActiveSetMode {
  /// Full sweep every iteration (the pre-active-set behavior).
  kOff,
  /// Skip a pair only when none of its inputs changed at all. Provably
  /// bit-identical to the full sweep (identical inputs, deterministic
  /// operators), including the iteration count and convergence decision.
  kExact,
  /// Additionally skip a pair while its accumulated input influence — the
  /// sharpened Σ w± · c/Ωχ · |Δ input| bound shared with the incremental
  /// engine — stays below frontier_tolerance. Final scores stay within
  /// frontier_tolerance · (1 + w) / (1 - w) of the exact-mode result.
  kTolerance,
};

/// The Table 3 operators for a χ variant.
OperatorConfig OperatorsForVariant(SimVariant variant);

/// FSim^0 initialization (§3.3 and §4.3).
enum class InitKind {
  kLabelSim,            // L(u,v) — the paper's default
  kIndicatorDiagonal,   // 1 iff u == v (SimRank)
  kDegreeRatio,         // min(d+(u),d+(v)) / max(d+(u),d+(v)) (RoleSim)
  kOnes,                // 1 everywhere
};

/// The additive (1 - w+ - w-) * L(u,v) term of Equation 1/3.
enum class LabelTermKind {
  kLabelSim,  // L(u,v)
  kZero,      // 0 (SimRank: label-free)
  kOne,       // 1 (RoleSim: the β "decay" becomes an additive constant)
};

/// Full configuration of a ComputeFSim run.
struct FSimConfig {
  /// Simulation variant χ; fixes Mχ/Ωχ unless operator_override is set.
  SimVariant variant = SimVariant::kBijective;

  /// Weighting factors: w+ (out-neighbors) and w- (in-neighbors);
  /// 0 <= w+, 0 <= w-, w+ + w- < 1 (Equation 1). The paper's experiments
  /// use w+ = w- = 0.4 (i.e. w* = 0.2).
  double w_out = 0.4;
  double w_in = 0.4;

  /// Label function L(·): indicator, normalized edit distance or
  /// Jaro-Winkler (§3.2).
  LabelSimKind label_sim = LabelSimKind::kIndicator;

  /// Label-constrained mapping threshold θ (Remark 2): only pairs with
  /// L >= θ participate (θ=0: arbitrary mapping; θ=1: same label only).
  double theta = 0.0;

  /// Upper-bound updating (§3.4, Eq. 6): drop candidate pairs whose bound is
  /// <= beta and approximate their lookups by alpha * bound. The paper
  /// defaults to beta = 0.5 and alpha = 0.
  bool upper_bound = false;
  double alpha = 0.0;
  double beta = 0.5;

  /// Convergence: stop when max |FSim^k - FSim^(k-1)| < epsilon. The
  /// experiments terminate "when the values changed by less than 0.01".
  double epsilon = 0.01;

  /// Hard iteration cap; 0 uses the Corollary 1 bound
  /// ceil(log_{w+ + w-}(epsilon)).
  uint32_t max_iterations = 0;

  /// Worker threads for the per-pair update loop (§3.4 Parallelization).
  int num_threads = 1;

  InitKind init = InitKind::kLabelSim;
  LabelTermKind label_term = LabelTermKind::kLabelSim;
  MatchingAlgo matching = MatchingAlgo::kGreedy;

  /// Overrides the Table 3 operators (used by the SimRank/RoleSim
  /// configurations of §4.3).
  std::optional<OperatorConfig> operator_override;

  /// Keep FSim(u,u) pinned to 1 on every iteration (SimRank semantics; only
  /// meaningful for self-similarity runs).
  bool pin_diagonal = false;

  /// Record max-delta per iteration (for the Theorem 1 monotonicity tests).
  bool record_delta_history = false;

  /// Abort with InvalidArgument if the candidate-pair count would exceed
  /// this (memory safety valve).
  uint64_t pair_limit = 100'000'000;

  /// Memory budget for the pair-graph CSR neighbor index (bytes). The index
  /// materializes, per maintained pair, the label-compatible candidate pairs
  /// of N±(u) x N±(v) as direct score-array references, eliminating every
  /// per-lookup hash probe and label check from the iterate loop. When the
  /// estimated footprint exceeds the budget the engine silently falls back
  /// to hash lookups (identical scores, slower iterations). 0 disables the
  /// index.
  uint64_t neighbor_index_budget_bytes = 1ULL << 30;

  /// Iterate-loop scheduling (see ActiveSetMode). Requires the CSR neighbor
  /// index (its spans double as the reverse-dependency lists); when the
  /// index is not materialized the engine runs full sweeps regardless.
  /// kExact is the default: it is bit-identical to full sweeps and on
  /// converging workloads freezes most pairs after the first few
  /// iterations (FSimStats::active_pairs_history / frozen_fraction).
  ActiveSetMode active_set = ActiveSetMode::kExact;

  /// kTolerance only: a pair is re-evaluated once the accumulated influence
  /// of its skipped input changes exceeds this. Must be positive in
  /// tolerance mode; the induced error is bounded by
  /// frontier_tolerance * (1 + w) / (1 - w), w = w+ + w-.
  double frontier_tolerance = 1e-6;

  /// Frontiers holding at least this fraction of the live pairs (those a
  /// full sweep after the first evaluates) are evaluated as full sweeps
  /// (dense frontiers are cheaper without the indirection); 0 forces full
  /// sweeps, 1 always uses the frontier path when the active set is
  /// engaged.
  double frontier_density_threshold = 0.5;

  /// Dependent marking — the reverse span walk per changed pair — costs
  /// about as much as re-evaluating the cheap (non-matching) operators, so
  /// the driver defers it until skipping can actually pay: marking turns
  /// on once at least this fraction of a sweep's evaluated pairs look
  /// freezable (delta == 0 in exact mode, delta <= frontier_tolerance in
  /// tolerance mode), and stays on. Until then iterations are plain full
  /// sweeps whose only extra cost is the per-pair freeze counter. 0 marks
  /// from the first iteration (tests use this to pin the frontier path).
  double active_set_activation_fraction = 0.125;

  /// Scheduler chunk length (pairs per chunk) for the iterate loop's full
  /// and frontier sweeps. Small enough that the work-stealing scheduler can
  /// rebalance around expensive pairs (large dp/bj matchings), large enough
  /// to amortize the per-chunk claim; 64 held up across the thread-count
  /// sweep in BENCH_fsim.json's tuning section.
  size_t iterate_grain = 64;

  /// Allow the packed 8-byte neighbor-index entry layout (16-bit row/col)
  /// when every relevant neighbor-list position (0..deg-1) fits in 16
  /// bits — halves the index memory on degree-bounded graphs. Graphs
  /// whose max degree exceeds 65536 in a weighted direction fall back to
  /// the 12-byte layout automatically; tests and benchmarks set this
  /// false to pin the wide layout.
  bool use_packed_neighbor_refs = true;

  /// The effective operator pair.
  OperatorConfig operators() const {
    return operator_override ? *operator_override
                             : OperatorsForVariant(variant);
  }
};

/// The engines' shared iteration cap: config.max_iterations when set,
/// otherwise the Corollary 1 convergence bound ⌈log_{w+ + w-}(ε)⌉ (>= 1).
uint32_t FSimIterationBound(const FSimConfig& config);

/// §4.3: FSimχ configured to compute SimRank with decay factor c on a single
/// (label-free) graph: w+ = 0, w- = c, M = S1 x S2, Ω = |S1||S2|, L = 0,
/// FSim^0 = 1 iff u = v, diagonal pinned.
FSimConfig SimRankFSimConfig(double c = 0.8);

/// §4.3: FSimχ configured to compute RoleSim with decay β on an undirected
/// adaptation (Graph::AsUndirected): w+ = 1-β, w- = 0, bj-style injective
/// mapping with Ω = max(|S1|,|S2|) (RoleSim's own normalizer), L = 1,
/// FSim^0 = degree ratio.
FSimConfig RoleSimFSimConfig(double beta = 0.1);

}  // namespace fsim

#endif  // FSIM_CORE_FSIM_CONFIG_H_
