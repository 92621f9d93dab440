#include "subspace/msc.h"

#include <algorithm>
#include <string>

#include "cluster/hierarchical.h"
#include "common/runguard.h"
#include "common/trace.h"
#include "cluster/spectral.h"
#include "stats/hsic.h"

namespace multiclust {

Result<MscResult> RunMultipleSpectralViews(const Matrix& data,
                                           const MscOptions& options) {
  const size_t d = data.cols();
  if (options.num_views == 0 || options.num_views > d) {
    return Status::InvalidArgument("mSC: invalid number of views");
  }
  if (options.k == 0 || options.k > data.rows()) {
    return Status::InvalidArgument("mSC: invalid k");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("mSC", data));
  MULTICLUST_TRACE_SPAN("subspace.msc.run");
  BudgetTracker guard(options.budget, "msc");

  MscResult result;
  // Pairwise dependence between single dimensions.
  result.dim_dependence = Matrix(d, d);
  if (d >= 2) {
    MC_ASSIGN_OR_RETURN(result.dim_dependence,
                        HsicMatrix(data, options.gamma, &guard));
  }
  double max_dep = 0.0;
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = a + 1; b < d; ++b) {
      const double dep = std::max(result.dim_dependence.at(a, b), 0.0);
      result.dim_dependence.at(a, b) = dep;
      result.dim_dependence.at(b, a) = dep;
      max_dep = std::max(max_dep, dep);
    }
  }

  // Group dependent dimensions: distance = max_dep - HSIC, average link.
  Matrix dist(d, d);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      dist.at(a, b) = a == b ? 0.0
                             : max_dep - result.dim_dependence.at(a, b);
    }
  }
  AgglomerativeOptions agg;
  agg.k = options.num_views;
  agg.linkage = Linkage::kAverage;
  MC_ASSIGN_OR_RETURN(AgglomerativeResult blocks,
                      AgglomerateFromDistances(dist, agg));

  // Spectral clustering inside each dimension block. A view whose
  // spectral run fails recoverably (degenerate eigendecomposition) or
  // whose turn arrives after the deadline is skipped with a warning; the
  // surviving views still form a usable (partial) solution set.
  for (size_t v = 0; v < options.num_views; ++v) {
    if (guard.Cancelled()) return guard.CancelledStatus();
    MscView view;
    for (size_t j = 0; j < d; ++j) {
      if (blocks.flat.labels[j] == static_cast<int>(v)) {
        view.dims.push_back(j);
      }
    }
    if (view.dims.empty()) continue;
    if (!result.views.empty() && guard.DeadlineExpired()) {
      result.warnings.push_back("mSC: deadline expired before view " +
                                std::to_string(v));
      AddWarning(options.diagnostics, "msc",
                 "deadline expired before view " + std::to_string(v));
      break;
    }
    const Matrix projected = data.SelectColumns(view.dims);
    SpectralOptions spec;
    spec.k = options.k;
    spec.gamma = options.gamma;
    spec.seed = options.seed + v;
    spec.budget = guard.Remaining();
    // Re-attach the checkpoint channel Remaining() strips: each view's
    // embedded k-means fingerprints its own embedding, so the shared slot
    // cannot leak state across views.
    spec.budget.checkpoint = options.budget.checkpoint;
    spec.diagnostics = options.diagnostics;
    Result<Clustering> clustering = RunSpectral(projected, spec);
    if (!clustering.ok()) {
      // A cancelled or crash-aborted view ends the whole run; only
      // recoverable computation errors degrade to a skipped view.
      if (clustering.status().code() == StatusCode::kCancelled ||
          clustering.status().code() == StatusCode::kAborted) {
        return clustering.status();
      }
      result.warnings.push_back("mSC: view " + std::to_string(v) +
                                " skipped: " +
                                clustering.status().ToString());
      AddWarning(options.diagnostics, "msc",
                 "view " + std::to_string(v) +
                     " skipped: " + clustering.status().ToString());
      continue;
    }
    view.clustering = std::move(*clustering);
    view.clustering.algorithm = "msc-spectral";
    MC_RETURN_IF_ERROR(result.solutions.Add(view.clustering));
    result.views.push_back(std::move(view));
  }
  if (result.views.empty()) {
    return Status::ComputationError(
        "mSC: no view produced a clustering" +
        (result.warnings.empty() ? std::string()
                                 : "; " + result.warnings.front()));
  }
  if (options.diagnostics != nullptr) {
    // The trace accumulated one segment per view; report it under the
    // umbrella algorithm.
    options.diagnostics->algorithm = "msc";
  }
  return result;
}

}  // namespace multiclust
