#ifndef MULTICLUST_CLUSTER_CLUSTERING_H_
#define MULTICLUST_CLUSTER_CLUSTERING_H_

#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace multiclust {

/// A single clustering solution: one label per object (-1 = noise), plus
/// optional centroids and an algorithm-specific quality score. This is the
/// `Clust_i` of the tutorial's abstract problem definition (slide 27).
struct Clustering {
  std::vector<int> labels;
  /// Optional cluster centroids (row c = centroid of dense label c);
  /// empty when the producing algorithm has no centroid notion.
  Matrix centroids;
  /// Algorithm-specific quality (e.g. SSE for k-means, log-likelihood for
  /// EM). NaN when not set.
  double quality = std::numeric_limits<double>::quiet_NaN();
  /// Name of the producing algorithm (for reports).
  std::string algorithm;
  /// Convergence diagnostics: outer iterations the producing optimisation
  /// loop executed, and whether its convergence criterion was met before
  /// an iteration/budget cap stopped it. Non-iterative producers leave
  /// the defaults.
  size_t iterations = 0;
  bool converged = true;

  /// Number of distinct non-noise clusters.
  size_t NumClusters() const;

  /// Members of each cluster after dense relabeling: result[c] lists the
  /// object ids with dense label c. Noise objects appear nowhere.
  std::vector<std::vector<int>> ClusterMembers() const;

  /// Relabels `labels` to dense 0..k-1 ids in place (noise preserved).
  void Canonicalize();

  /// Checkpoint schema (see common/checkpoint.h): the pipeline's solved
  /// solution set. An unset (NaN) quality round-trips as null.
  template <class Ar>
  void Fields(Ar& ar) {
    ar("labels", labels);
    ar("centroids", centroids);
    ar("quality", quality);
    ar("algorithm", algorithm);
    ar("iterations", iterations);
    ar("converged", converged);
  }
};

/// Abstract base for algorithms producing one clustering from a data
/// matrix. Algorithms with richer inputs/outputs (alternative clustering,
/// subspace mining, multi-view) define their own entry points; this
/// interface is what the *exchangeable cluster definition* hooks of the
/// tutorial's flexible methods accept (e.g. meta clustering, orthogonal
/// transformations take "any clustering algorithm").
class Clusterer {
 public:
  virtual ~Clusterer() = default;

  /// Clusters the rows of `data`.
  virtual Result<Clustering> Cluster(const Matrix& data) = 0;

  /// Human-readable algorithm name.
  virtual std::string name() const = 0;
};

/// Assigns every row of `data` to the nearest row of `centers` (squared
/// Euclidean, ties to the lowest index), in parallel over row blocks; the
/// labels do not depend on the thread count. Shared by k-means-style
/// algorithms.
std::vector<int> AssignToNearest(const Matrix& data, const Matrix& centers);

/// Per-cluster member counts and coordinate sums of one labelling.
struct ClusterSums {
  std::vector<size_t> counts;
  Matrix sums;

  /// Divides each non-empty row of `sums` by its count and moves the
  /// result out, leaving `sums` 0x0. Rows of empty clusters stay zero
  /// for the caller to fill; `counts` still tells which they are.
  Matrix TakeMeans();
};

/// Sums the rows of `data` by label (labels < 0 skipped; the others must
/// be < k): one `kernels::Add` per row, rows in ascending order, serial,
/// so the bits do not depend on the thread count. The one centroid update
/// of k-means, dec-kmeans, disparate clustering and `ClusterMeans`.
ClusterSums SumByCluster(const Matrix& data, const std::vector<int>& labels,
                         size_t k);

}  // namespace multiclust

#endif  // MULTICLUST_CLUSTER_CLUSTERING_H_
