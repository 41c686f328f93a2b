// Synthetic, deterministically seeded analogs of the paper's eight public
// datasets (Table 4). The real datasets (KONECT/SNAP/AMiner downloads) are
// not available offline, so each analog reproduces the dataset's statistical
// shape — label multiplicity, average degree, heavy-tailed in/out-degree —
// scaled down so each experiment runs on one machine; every DatasetSpec
// keeps the published Table 4 counts beside the scaled generation
// parameters. Experiments depend on these shape parameters, not on the
// concrete edges.
#ifndef FSIM_DATASETS_DATASET_REGISTRY_H_
#define FSIM_DATASETS_DATASET_REGISTRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace fsim {

/// One dataset analog: the paper's published statistics plus the scaled
/// parameters we generate with.
struct DatasetSpec {
  std::string name;
  // Published statistics (Table 4).
  size_t paper_nodes = 0;
  size_t paper_edges = 0;
  size_t paper_labels = 0;
  // Scaled generation parameters.
  uint32_t nodes = 0;
  uint64_t edges = 0;
  uint32_t labels = 0;
  uint32_t max_out_degree = 0;
  uint32_t max_in_degree = 0;
  double label_skew = 1.0;
  uint64_t seed = 0;
};

/// The eight analogs in Table 4 order: yeast, cora, wiki, jdk, nell, gp,
/// amazon, acmcit.
const std::vector<DatasetSpec>& AllDatasetSpecs();

/// Spec by name; NotFound for unknown names.
Result<DatasetSpec> DatasetSpecByName(std::string_view name);

/// Generates the analog graph for a spec (deterministic in the spec's seed).
Graph MakeDataset(const DatasetSpec& spec);

/// Convenience: generate by name, aborting on unknown names.
Graph MakeDatasetByName(std::string_view name);

}  // namespace fsim

#endif  // FSIM_DATASETS_DATASET_REGISTRY_H_
