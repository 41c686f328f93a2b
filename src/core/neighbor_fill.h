// The classify-and-fill machinery shared by the two pair-graph neighbor
// indexes: PairStore's batch CSR (core/pair_store.h) and the editable
// IncrementalNeighborIndex (core/incremental_index.h). Both classify the
// candidate pairs of N±(u) x N±(v) with one RefClassifier and lay their
// spans out with one staged parallel fill, so the two indexes hold the same
// entries for the same pair set by construction.
#ifndef FSIM_CORE_NEIGHBOR_FILL_H_
#define FSIM_CORE_NEIGHBOR_FILL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/flat_pair_map.h"
#include "common/thread_pool.h"
#include "core/operators.h"
#include "graph/graph.h"
#include "label/label_similarity.h"

namespace fsim {

/// Score source of candidate pair (x, y): the maintained-pair index, or a
/// tagged pruned-bound index whose lookup value is α * bound. Pairs that
/// are label-incompatible, or absent from both tables (their fallback
/// lookup would return 0, which never contributes to any operator), get no
/// entry. G1/G2 are Graph or DynamicGraph.
template <typename G1, typename G2>
struct RefClassifier {
  const G1& g1;
  const G2& g2;
  const LabelSimilarityCache& lsim;
  double theta;               // Remark 2 filter; <= 0 admits every pair
  const FlatPairMap& pairs;   // maintained pair -> score index
  const FlatPairMap* pruned;  // tracked pruned pairs, or null (α == 0)

  bool Classify(NodeId x, NodeId y, uint32_t* ref) const {
    if (theta > 0.0 && !lsim.Compatible(g1.Label(x), g2.Label(y), theta)) {
      return false;
    }
    const uint32_t idx = pairs.Find(PairKey(x, y));
    if (idx != FlatPairMap::kNotFound) {
      *ref = idx;
      return true;
    }
    if (pruned != nullptr) {
      const uint32_t p = pruned->Find(PairKey(x, y));
      if (p != FlatPairMap::kNotFound) {
        *ref = kNeighborRefPrunedTag | p;
        return true;
      }
    }
    return false;
  }

  /// Calls emit(Ref{r, c, ref}) for every classified candidate
  /// (s1[r], s2[c]) of one direction span, in (row, col) order. Ref is
  /// NeighborRef or PackedNeighborRef.
  template <typename Ref, typename Emit>
  void ClassifySpan(std::span<const NodeId> s1, std::span<const NodeId> s2,
                    Emit&& emit) const {
    using PosT = decltype(Ref::row);
    for (uint32_t r = 0; r < s1.size(); ++r) {
      for (uint32_t c = 0; c < s2.size(); ++c) {
        uint32_t ref;
        if (Classify(s1[r], s2[c], &ref)) {
          // The packed layout is selected on a degree bound; a position
          // overflowing PosT would wrap silently and corrupt the span.
          FSIM_DCHECK(r <= std::numeric_limits<PosT>::max());
          FSIM_DCHECK(c <= std::numeric_limits<PosT>::max());
          emit(Ref{static_cast<PosT>(r), static_cast<PosT>(c), ref});
        }
      }
    }
  }
};

/// Lays out the 2 * num_pairs direction spans of a pair-graph neighbor
/// index as one CSR arena: span s = 2 * pair + dir (dir 0 = out, 1 = in)
/// holds (*refs)[(*offsets)[s], (*offsets)[s + 1]). stage(pair, dir, emit)
/// classifies one span, calling emit(const Ref&) per entry in (row, col)
/// order, and emits nothing for a span the index leaves empty.
///
/// Default (one pass): grain-sized pair chunks classify into per-chunk
/// staging buffers while recording span sizes; the sizes are prefix-summed;
/// then each chunk's entries — contiguous in the final layout, because the
/// chunks cover contiguous pair ranges — are bulk-copied into place. The
/// transient peak is the final arena plus the staged entries.
/// `bounded`: a counting pass records the span sizes, then a second
/// classification writes entries straight into their final slots — twice
/// the classify work, but the peak is the final arena. Chunks run on
/// `pool` (inline when it has one thread). Returns the peak bytes held in
/// staging buffers (0 when bounded).
template <typename Ref, typename Stage>
size_t FillNeighborSpans(ThreadPool& pool, size_t num_pairs, bool bounded,
                         const Stage& stage, std::vector<uint64_t>* offsets,
                         std::vector<Ref>* refs) {
  constexpr size_t kGrain = 256;
  offsets->assign(2 * num_pairs + 1, 0);
  uint64_t* off = offsets->data();
  auto prefix_sum = [&] {
    // off[s + 1] holds the size of span s.
    for (size_t s = 1; s <= 2 * num_pairs; ++s) off[s] += off[s - 1];
    refs->resize(off[2 * num_pairs]);
  };

  if (bounded) {
    pool.ParallelForChunked(num_pairs, kGrain, [&](int, size_t begin,
                                                   size_t end) {
      for (size_t i = begin; i < end; ++i) {
        for (size_t dir = 0; dir < 2; ++dir) {
          uint64_t count = 0;
          stage(i, static_cast<int>(dir), [&count](const Ref&) { ++count; });
          off[2 * i + dir + 1] = count;
        }
      }
    });
    prefix_sum();
    pool.ParallelForChunked(num_pairs, kGrain, [&](int, size_t begin,
                                                   size_t end) {
      for (size_t i = begin; i < end; ++i) {
        for (size_t dir = 0; dir < 2; ++dir) {
          Ref* cursor = refs->data() + off[2 * i + dir];
          stage(i, static_cast<int>(dir),
                [&cursor](const Ref& e) { *cursor++ = e; });
          FSIM_DCHECK(cursor == refs->data() + off[2 * i + dir + 1]);
        }
      }
    });
    return 0;
  }

  const size_t num_chunks = (num_pairs + kGrain - 1) / kGrain;
  std::vector<std::vector<Ref>> staged(num_chunks);
  pool.ParallelForChunked(num_pairs, kGrain, [&](int, size_t begin,
                                                 size_t end) {
    // ParallelForChunked hands out grain-aligned begins (the inline
    // single-chunk path starts at 0), so begin / kGrain names the buffer.
    std::vector<Ref>& buf = staged[begin / kGrain];
    auto push = [&buf](const Ref& e) { buf.push_back(e); };
    for (size_t i = begin; i < end; ++i) {
      for (size_t dir = 0; dir < 2; ++dir) {
        const size_t before = buf.size();
        stage(i, static_cast<int>(dir), push);
        off[2 * i + dir + 1] = buf.size() - before;
      }
    }
  });
  // Every staging buffer is alive here: the build's transient peak on top
  // of the final arena.
  size_t peak_staging_bytes = 0;
  for (const std::vector<Ref>& buf : staged) {
    peak_staging_bytes += buf.capacity() * sizeof(Ref);
  }
  prefix_sum();
  pool.ParallelForChunked(num_chunks, 1, [&](int, size_t begin, size_t end) {
    for (size_t chunk = begin; chunk < end; ++chunk) {
      // The chunk's entries start at its first pair's first span.
      const uint64_t dst = off[2 * chunk * kGrain];
      std::copy(staged[chunk].begin(), staged[chunk].end(),
                refs->data() + dst);
      // A non-empty buffer ends at the next chunk's start — or at the
      // arena end when it absorbed the tail (the last chunk, or the
      // pool's inline single-chunk run staging everything into buffer 0,
      // which leaves the other buffers empty with nothing to check).
      FSIM_DCHECK(staged[chunk].empty() ||
                  dst + staged[chunk].size() == off[2 * num_pairs] ||
                  dst + staged[chunk].size() ==
                      off[2 * std::min((chunk + 1) * kGrain, num_pairs)]);
      staged[chunk] = std::vector<Ref>();  // release while others copy
    }
  });
  return peak_staging_bytes;
}

}  // namespace fsim

#endif  // FSIM_CORE_NEIGHBOR_FILL_H_
