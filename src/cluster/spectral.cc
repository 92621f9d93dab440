#include "cluster/spectral.h"

#include <cmath>
#include <limits>

#include "cluster/kmeans.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "linalg/decomposition.h"
#include "stats/hsic.h"

namespace multiclust {

Matrix NormalizedAffinity(Matrix w) {
  const size_t n = w.rows();
  for (size_t i = 0; i < n; ++i) w.at(i, i) = 0.0;
  std::vector<double> inv_sqrt_deg(n, 0.0);
  ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      double deg = 0.0;
      for (size_t j = 0; j < n; ++j) deg += w.at(i, j);
      inv_sqrt_deg[i] = deg > 1e-12 ? 1.0 / std::sqrt(deg) : 0.0;
    }
  });
  ParallelFor(0, n, 128, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = 0; j < n; ++j) {
        w.at(i, j) = inv_sqrt_deg[i] * w.at(i, j) * inv_sqrt_deg[j];
      }
    }
  });
  return w;
}

Result<Matrix> SpectralEmbedding(Matrix affinity, size_t k,
                                 const RunBudget& budget, double tol) {
  const size_t n = affinity.rows();
  if (affinity.cols() != n) {
    return Status::InvalidArgument("spectral: affinity must be square");
  }
  const Matrix normalized = NormalizedAffinity(std::move(affinity));
  Result<SymmetricEigen> eig_result = [&] {
    MULTICLUST_TRACE_SPAN("cluster.spectral.eigen");
    return TopKEigen(normalized, k, tol, budget);
  }();
  MC_ASSIGN_OR_RETURN(SymmetricEigen eig, std::move(eig_result));
  // Embed into the top-k eigenvectors, row-normalised.
  Matrix embed = std::move(eig.vectors);
  for (size_t i = 0; i < n; ++i) {
    double norm_sq = 0.0;
    for (size_t c = 0; c < k; ++c) norm_sq += embed.at(i, c) * embed.at(i, c);
    if (norm_sq > 1e-24) {
      const double inv = 1.0 / std::sqrt(norm_sq);
      for (size_t c = 0; c < k; ++c) embed.at(i, c) *= inv;
    }
  }
  return embed;
}

Result<Clustering> RunSpectral(const Matrix& data,
                               const SpectralOptions& options) {
  const size_t n = data.rows();
  if (options.k == 0 || n < options.k) {
    return Status::InvalidArgument("spectral: invalid k for data size");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("spectral", data));
  MULTICLUST_TRACE_SPAN("cluster.spectral.run");
  BudgetTracker guard(options.budget, "spectral");

  Matrix w = [&] {
    MULTICLUST_TRACE_SPAN("cluster.spectral.affinity");
    return GaussianKernelMatrix(data, options.gamma, &guard);
  }();
  if (guard.Cancelled()) return guard.CancelledStatus();
  MC_ASSIGN_OR_RETURN(Matrix embed, SpectralEmbedding(std::move(w), options.k,
                                                      guard.Remaining()));
  if (guard.Cancelled()) return guard.CancelledStatus();

  if (MC_FAULT_FIRES("spectral", FaultKind::kInjectNaN, 0)) {
    embed.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
  }
  if (MC_FAULT_FIRES("spectral", FaultKind::kAllocFail, 0)) {
    return Status::ComputationError(
        "spectral: injected allocation failure growing the embedding "
        "matrix");
  }
  // A degenerate eigendecomposition must surface as a recoverable
  // computation error, not as poisoned labels out of k-means.
  if (!ValidateMatrix("spectral", embed).ok()) {
    return Status::ComputationError(
        "spectral: non-finite spectral embedding");
  }

  KMeansOptions km;
  km.k = options.k;
  km.restarts = options.kmeans_restarts;
  km.seed = options.seed;
  km.budget = guard.Remaining();
  // Everything before the embedded k-means is deterministic recomputation,
  // so spectral checkpoints live entirely in the k-means slot: re-attach
  // the channel Remaining() deliberately stripped. The k-means fingerprint
  // covers the embedding matrix, so another spectral (or plain k-means)
  // configuration can never restore from these snapshots.
  km.budget.checkpoint = options.budget.checkpoint;
  km.diagnostics = options.diagnostics;
  MULTICLUST_TRACE_SPAN("cluster.spectral.kmeans");
  // Progress events from the embedded k-means stream under its own stage
  // name; bracket them so a consumer can attribute them to spectral.
  telemetry::EmitStage("spectral", "start");
  MC_ASSIGN_OR_RETURN(Clustering c, RunKMeans(embed, km));
  telemetry::EmitStage("spectral", "end");
  if (options.diagnostics != nullptr) {
    // The trace is the embedded k-means run; report it under this
    // algorithm's name.
    options.diagnostics->algorithm = "spectral";
  }
  c.algorithm = "spectral";
  c.centroids = Matrix();  // centroids live in embedding space; drop them
  return c;
}

}  // namespace multiclust
