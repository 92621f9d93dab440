#ifndef MULTICLUST_MULTIVIEW_MV_SPECTRAL_H_
#define MULTICLUST_MULTIVIEW_MV_SPECTRAL_H_

#include <cstdint>
#include <vector>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"

namespace multiclust {

/// How per-view affinities are fused.
enum class AffinityFusion {
  /// Arithmetic mean of the per-view kernels (robust default).
  kAverage,
  /// Elementwise product: objects must be similar in *every* view (the
  /// multi-view analogue of the intersection rule).
  kProduct,
};

/// Options for multi-view spectral clustering (de Sa 2005; Zhou & Burges
/// 2007; tutorial slide 100).
struct MvSpectralOptions {
  size_t k = 2;
  /// Per-view RBF parameter; <= 0 = median heuristic per view.
  double gamma = 0.0;
  AffinityFusion fusion = AffinityFusion::kAverage;
  uint64_t seed = 1;
  /// Wall-clock / cancellation limits, forwarded to the eigensolver
  /// (checked once per iteration) and to the embedded k-means.
  RunBudget budget;
};

/// Multi-view spectral clustering: builds one Gaussian affinity per view
/// (paired rows), fuses them, and runs the normalised spectral embedding +
/// k-means on the fused graph. A consensus-style method: one clustering
/// supported by all views.
Result<Clustering> RunMvSpectral(const std::vector<Matrix>& views,
                                 const MvSpectralOptions& options);

}  // namespace multiclust

#endif  // MULTICLUST_MULTIVIEW_MV_SPECTRAL_H_
