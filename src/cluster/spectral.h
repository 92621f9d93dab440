#ifndef MULTICLUST_CLUSTER_SPECTRAL_H_
#define MULTICLUST_CLUSTER_SPECTRAL_H_

#include <cstdint>
#include <string>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"
#include "linalg/decomposition.h"

namespace multiclust {

/// Options for Ng-Jordan-Weiss spectral clustering.
struct SpectralOptions {
  size_t k = 2;
  /// RBF affinity parameter; <= 0 selects the median heuristic.
  double gamma = 0.0;
  /// k-means settings for the embedded space.
  size_t kmeans_restarts = 5;
  uint64_t seed = 1;
  /// Wall-clock / cancellation limits. Checked between the affinity,
  /// eigendecomposition and embedded-k-means phases and once per
  /// eigensolver iteration; the remaining deadline is forwarded to the
  /// embedded k-means.
  RunBudget budget;
  /// Optional observability sink (not owned): the embedded k-means fills
  /// the per-iteration ConvergenceTrace; the algorithm name is reported
  /// as "spectral". nullptr (the default) records nothing.
  RunDiagnostics* diagnostics = nullptr;
};

/// The NJW normalised affinity D^{-1/2} W D^{-1/2} of `affinity` (W),
/// computed in place: the diagonal is zeroed first (standard NJW), and a
/// row with zero degree becomes all zeros. Its top-k eigenvectors are the
/// bottom-k of the normalised Laplacian.
Matrix NormalizedAffinity(Matrix affinity);

/// NJW spectral embedding of the n x n affinity W: NormalizedAffinity,
/// the top-k eigenvectors by TopKEigen (tolerance `tol`), each row scaled
/// to unit length. Returns the n x k embedding. The one embedding behind
/// RunSpectral and RunMvSpectral. `budget` goes to TopKEigen, which
/// checks it once per iteration. Holds one n x n matrix (W is normalised
/// where it lies); O(n^2 b) per eigensolver iteration, b = k + max(k, 8).
Result<Matrix> SpectralEmbedding(Matrix affinity, size_t k,
                                 const RunBudget& budget = {},
                                 double tol = kDefaultEigenTol);

/// Spectral clustering (Ng, Jordan & Weiss 2001): Gaussian affinity,
/// SpectralEmbedding, k-means. The base method of the mSC multiple-views
/// approach referenced by the tutorial (slide 90). O(n^2 d) for the
/// affinity plus O(n^2 b) per eigensolver iteration (see
/// SpectralEmbedding; tens to a few hundred iterations, set by the
/// eigenvalue gap, not by n); memory is one n x n matrix.
Result<Clustering> RunSpectral(const Matrix& data,
                               const SpectralOptions& options);

/// `Clusterer` adapter.
class SpectralClusterer : public Clusterer {
 public:
  explicit SpectralClusterer(SpectralOptions options) : options_(options) {}

  Result<Clustering> Cluster(const Matrix& data) override {
    return RunSpectral(data, options_);
  }
  std::string name() const override { return "spectral"; }

 private:
  SpectralOptions options_;
};

}  // namespace multiclust

#endif  // MULTICLUST_CLUSTER_SPECTRAL_H_
