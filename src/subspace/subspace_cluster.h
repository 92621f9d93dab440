#ifndef MULTICLUST_SUBSPACE_SUBSPACE_CLUSTER_H_
#define MULTICLUST_SUBSPACE_SUBSPACE_CLUSTER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "stats/grid.h"

namespace multiclust {

/// The abstract subspace cluster of the tutorial (slide 65):
/// C = (O, S) with objects O subset of DB and dimensions S subset of DIM.
struct SubspaceCluster {
  std::vector<size_t> dims;  ///< S, ascending
  std::vector<int> objects;  ///< O, ascending object ids
  /// Producing algorithm (for reports).
  std::string source;

  size_t dimensionality() const { return dims.size(); }
  size_t support() const { return objects.size(); }

  /// |O ∩ other.O| computed on the sorted object lists.
  size_t ObjectOverlap(const SubspaceCluster& other) const;

  /// |S ∩ other.S|.
  size_t DimOverlap(const SubspaceCluster& other) const;
};

/// A full subspace clustering result M = {C_1 ... C_n} (slide 65). Objects
/// may belong to many clusters; clusters live in different subspaces.
struct SubspaceClustering {
  std::vector<SubspaceCluster> clusters;

  /// Clusters grouped by identical subspace; each entry lists indices into
  /// `clusters`.
  std::vector<std::vector<size_t>> GroupBySubspace() const;

  /// Converts the clusters of one subspace group into a flat labeling of
  /// `num_objects` objects (later clusters override earlier on overlap;
  /// uncovered objects get -1).
  std::vector<int> LabelsForGroup(const std::vector<size_t>& group,
                                  size_t num_objects) const;

  /// Number of distinct subspaces present.
  size_t NumSubspaces() const;
};

/// Pair-level F1 of a set of discovered subspace clusters against a planted
/// ground-truth labeling *restricted to a view*: each discovered cluster is
/// treated as a predicted group; recall counts truth pairs co-clustered in
/// at least one discovered cluster, precision counts discovered co-cluster
/// pairs that the truth also co-clusters. Robust to overlapping results.
Result<double> SubspacePairF1(const SubspaceClustering& found,
                              const std::vector<int>& truth);

/// One apriori level step over the subspace lattice (slide 71): joins the
/// entries of `level` (distinct k-dimensional subspaces, each ascending,
/// the list sorted) that share their first k-1 dimensions, and keeps a
/// joined (k+1)-subspace only when every k-dimensional projection is in
/// `level`. The result is sorted and duplicate-free.
std::vector<std::vector<size_t>> AprioriCandidates(
    const std::vector<std::vector<size_t>>& level);

/// Merges grid units (same subspace, adjacent cells) into subspace clusters:
/// the CLIQUE cluster-formation step (connected components of dense units;
/// slide 69). Units must all come from the same `Grid`.
std::vector<SubspaceCluster> UnitsToClusters(const std::vector<GridUnit>& units,
                                             const std::string& source);

}  // namespace multiclust

#endif  // MULTICLUST_SUBSPACE_SUBSPACE_CLUSTER_H_
