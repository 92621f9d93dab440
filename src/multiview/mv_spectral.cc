#include "multiview/mv_spectral.h"

#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "stats/hsic.h"

namespace multiclust {

Result<Clustering> RunMvSpectral(const std::vector<Matrix>& views,
                                 const MvSpectralOptions& options) {
  if (views.empty()) {
    return Status::InvalidArgument("mv-spectral: no views");
  }
  const size_t n = views[0].rows();
  for (const Matrix& v : views) {
    if (v.rows() != n) {
      return Status::InvalidArgument("mv-spectral: unpaired view rows");
    }
    MC_RETURN_IF_ERROR(ValidateMatrix("mv-spectral", v));
  }
  if (options.k == 0 || options.k > n) {
    return Status::InvalidArgument("mv-spectral: invalid k");
  }

  BudgetTracker guard(options.budget, "mv-spectral");

  // Fused affinity.
  Matrix w(n, n, options.fusion == AffinityFusion::kProduct ? 1.0 : 0.0);
  for (const Matrix& view : views) {
    const Matrix kern = GaussianKernelMatrix(view, options.gamma, &guard);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (options.fusion == AffinityFusion::kProduct) {
          w.at(i, j) *= kern.at(i, j);
        } else {
          w.at(i, j) += kern.at(i, j) / static_cast<double>(views.size());
        }
      }
    }
  }
  if (guard.Cancelled()) return guard.CancelledStatus();
  MC_ASSIGN_OR_RETURN(Matrix embed, SpectralEmbedding(std::move(w), options.k,
                                                      guard.Remaining()));
  KMeansOptions km;
  km.k = options.k;
  km.restarts = 5;
  km.seed = options.seed;
  km.budget = guard.Remaining();
  MC_ASSIGN_OR_RETURN(Clustering c, RunKMeans(embed, km));
  c.algorithm = options.fusion == AffinityFusion::kProduct
                    ? "mv-spectral-product"
                    : "mv-spectral-average";
  c.centroids = Matrix();
  return c;
}

}  // namespace multiclust
