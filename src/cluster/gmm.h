#ifndef MULTICLUST_CLUSTER_GMM_H_
#define MULTICLUST_CLUSTER_GMM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/clustering.h"
#include "common/result.h"
#include "common/runguard.h"
#include "linalg/matrix.h"

namespace multiclust {

/// Covariance structure of mixture components.
enum class CovarianceType {
  kSpherical,  ///< sigma^2 * I
  kDiagonal,   ///< diag(sigma_1^2 .. sigma_d^2)
};

/// One Gaussian mixture component.
struct GmmComponent {
  double weight = 0.0;
  std::vector<double> mean;
  /// Per-dimension variances; length 1 for spherical components.
  std::vector<double> variances;

  /// Log density log N(x | mean, variances).
  double LogDensity(const std::vector<double>& x) const;
  /// Pointer form for hot paths (`x` has mean.size() values); avoids the
  /// per-row vector copies of the E-step. `logdet` is sum_j log var_j,
  /// precomputed once per component per sweep (see PrecomputeLogDet).
  double LogDensity(const double* x, double logdet) const;
  /// sum_j log var_j for this component (d * log var when spherical).
  double PrecomputeLogDet(size_t d) const;

  /// Checkpoint schema (see common/checkpoint.h).
  template <class Ar>
  void Fields(Ar& ar) {
    ar("w", weight);
    ar("m", mean);
    ar("v", variances);
  }
};

/// A fitted Gaussian mixture model. Reused by CAMI and co-EM, which run
/// customised EM loops over the same representation.
struct GmmModel {
  std::vector<GmmComponent> components;
  double log_likelihood = 0.0;
  /// EM iterations of the winning restart and whether its relative
  /// log-likelihood change dropped below tol before any cap stopped it.
  size_t iterations = 0;
  bool converged = false;

  size_t k() const { return components.size(); }

  /// Posterior responsibilities p(c | x) for one point.
  std::vector<double> Responsibilities(const std::vector<double>& x) const;

  /// Log p(x) under the mixture.
  double LogDensity(const std::vector<double>& x) const;

  /// Hard assignment: argmax_c p(c | x) per row of data.
  std::vector<int> HardAssign(const Matrix& data) const;

  /// Total data log-likelihood sum_i log p(x_i).
  double TotalLogLikelihood(const Matrix& data) const;

  /// Checkpoint schema (see common/checkpoint.h), shared by the GMM and
  /// co-EM payloads.
  template <class Ar>
  void Fields(Ar& ar) {
    ar("components", components);
    ar("ll", log_likelihood);
    ar("iterations", iterations);
    ar("converged", converged);
  }
};

/// Options for EM fitting.
struct GmmOptions {
  size_t k = 2;
  size_t max_iters = 200;
  size_t restarts = 1;
  double tol = 1e-6;           ///< relative log-likelihood change
  double variance_floor = 1e-6;
  CovarianceType covariance = CovarianceType::kDiagonal;
  uint64_t seed = 1;
  /// Wall-clock / iteration / cancellation limits (see common/runguard.h).
  RunBudget budget;
  /// Optional observability sink (not owned): per-outer-iteration
  /// ConvergenceTrace (log-likelihood, log-likelihood change, dead
  /// components) plus iterations/convergence/stop-reason. nullptr (the
  /// default) records nothing and costs nothing.
  RunDiagnostics* diagnostics = nullptr;
};

/// Fits a GMM by EM (k-means++ initialisation). Returns the best restart by
/// final log-likelihood.
Result<GmmModel> FitGmm(const Matrix& data, const GmmOptions& options);

/// Runs EM and converts the fitted model into a hard Clustering
/// (`quality` = total log-likelihood, higher is better).
Result<Clustering> RunGmm(const Matrix& data, const GmmOptions& options);

/// One EM iteration (E-step + M-step) of `model` on `data`, in place.
/// Exposed so co-EM and CAMI can interleave custom steps. Returns the
/// log-likelihood *before* the update.
Result<double> EmStep(const Matrix& data, double variance_floor,
                      GmmModel* model);

/// Recomputes the M-step from fixed responsibilities (rows = objects,
/// cols = components); used by co-EM's cross-view bootstrap.
Status MStepFromResponsibilities(const Matrix& data,
                                 const Matrix& responsibilities,
                                 double variance_floor, GmmModel* model);

/// Initialises a k-component diagonal GMM from data (k-means++ style means,
/// global variances, uniform weights).
Result<GmmModel> InitGmm(const Matrix& data, size_t k, CovarianceType cov,
                         uint64_t seed);

/// `Clusterer` adapter.
class GmmClusterer : public Clusterer {
 public:
  explicit GmmClusterer(GmmOptions options) : options_(options) {}

  Result<Clustering> Cluster(const Matrix& data) override {
    return RunGmm(data, options_);
  }
  std::string name() const override { return "gmm-em"; }

 private:
  GmmOptions options_;
};

}  // namespace multiclust

#endif  // MULTICLUST_CLUSTER_GMM_H_
