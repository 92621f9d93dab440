#ifndef MULTICLUST_METRICS_CLUSTERING_QUALITY_H_
#define MULTICLUST_METRICS_CLUSTERING_QUALITY_H_

#include <vector>

#include "common/result.h"
#include "common/runguard.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Internal quality measures: the `Q` of the tutorial's abstract problem
/// definition (slide 27). All operate on a labeling of the rows of a data
/// matrix; noise labels (-1) are skipped.

/// Sum of squared distances from each object to its cluster mean (k-means
/// compactness; lower is better).
Result<double> SumSquaredError(const Matrix& data,
                               const std::vector<int>& labels);

/// Mean silhouette coefficient in [-1, 1] (higher is better). O(n^2 d),
/// vectorised and parallel over row blocks; the bits do not depend on the
/// SIMD backend or the thread count. The one-labelling case of
/// Silhouettes.
Result<double> Silhouette(const Matrix& data, const std::vector<int>& labels,
                          const CancelToken* cancel = nullptr);

/// Mean silhouette of each labelling of the rows of `data`, in one pass
/// over the unordered row pairs: every distance is computed once and
/// shared by both rows and all labellings. Entry l is bit-identical to
/// Silhouette(data, labellings[l]), with the same status when that
/// labelling cannot be scored (size mismatch, fewer than 2 clusters, no
/// scorable object). Holds n * (sum of the ks + 1) doubles of sums.
/// `cancel` (optional, not owned) is polled once per tile of 256 x 256
/// row pairs; once set the call returns kCancelled.
Result<std::vector<Result<double>>> Silhouettes(
    const Matrix& data, const std::vector<std::vector<int>>& labellings,
    const CancelToken* cancel = nullptr);

/// Dunn index: min inter-cluster distance / max intra-cluster diameter
/// (higher is better). O(n^2). `cancel` (optional, not owned) is polled
/// once per 64-row block; once set the call returns kCancelled.
Result<double> DunnIndex(const Matrix& data, const std::vector<int>& labels,
                         const CancelToken* cancel = nullptr);

/// Cluster means for a labeling (rows = dense-relabeled clusters).
Result<Matrix> ClusterMeans(const Matrix& data,
                            const std::vector<int>& labels);

/// Fraction of objects labeled as noise (-1).
double NoiseFraction(const std::vector<int>& labels);

/// Number of distinct non-noise clusters.
size_t NumClusters(const std::vector<int>& labels);

}  // namespace multiclust

#endif  // MULTICLUST_METRICS_CLUSTERING_QUALITY_H_
