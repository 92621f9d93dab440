#ifndef MULTICLUST_CLUSTER_KMEANS_H_
#define MULTICLUST_CLUSTER_KMEANS_H_

#include <cstdint>
#include <string>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"

namespace multiclust {

/// Options for Lloyd's k-means.
struct KMeansOptions {
  size_t k = 2;
  size_t max_iters = 100;
  /// Independent restarts; the run with the lowest SSE wins.
  size_t restarts = 1;
  /// k-means++ seeding (true) or uniform random centers (false).
  bool plus_plus_init = true;
  /// Convergence threshold on centre movement (max abs coordinate change).
  double tol = 1e-6;
  uint64_t seed = 1;
  /// Wall-clock / iteration / cancellation limits (see common/runguard.h).
  /// Unlimited by default. On deadline or iteration-cap expiry the best
  /// result so far is returned with `converged = false`.
  RunBudget budget;
  /// Optional observability sink (not owned; may outlive the call). When
  /// set, the run fills it with iterations/convergence/stop-reason info
  /// and a per-outer-iteration ConvergenceTrace (per-iteration SSE, max
  /// centre shift, empty-cluster reseeds). Costs one extra SSE reduction
  /// per iteration; the default nullptr records nothing and costs nothing.
  RunDiagnostics* diagnostics = nullptr;
};

/// Runs k-means on the rows of `data`. The returned Clustering carries the
/// final centroids and `quality` = SSE (lower is better).
Result<Clustering> RunKMeans(const Matrix& data, const KMeansOptions& options);

/// `Clusterer` adapter so k-means can be plugged into the flexible-model
/// algorithms (meta clustering, orthogonal transformations, ...).
class KMeansClusterer : public Clusterer {
 public:
  explicit KMeansClusterer(KMeansOptions options) : options_(options) {}

  Result<Clustering> Cluster(const Matrix& data) override {
    return RunKMeans(data, options_);
  }
  std::string name() const override { return "kmeans"; }

  KMeansOptions& options() { return options_; }

 private:
  KMeansOptions options_;
};

}  // namespace multiclust

#endif  // MULTICLUST_CLUSTER_KMEANS_H_
