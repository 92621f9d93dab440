#include "cluster/gmm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/kmeans.h"
#include "common/checkpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

constexpr double kLog2Pi = 1.8378770664093454836;

double LogSumExp(const std::vector<double>& xs) {
  double m = -std::numeric_limits<double>::infinity();
  for (double x : xs) m = std::max(m, x);
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double x : xs) s += std::exp(x - m);
  return m + std::log(s);
}

}  // namespace

double GmmComponent::PrecomputeLogDet(size_t d) const {
  if (variances.size() == 1) {
    return static_cast<double>(d) * std::log(variances[0]);
  }
  double logdet = 0.0;
  for (size_t j = 0; j < d; ++j) logdet += std::log(variances[j]);
  return logdet;
}

double GmmComponent::LogDensity(const double* x, double logdet) const {
  const size_t d = mean.size();
  const double quad =
      variances.size() == 1
          ? kernels::SquaredDistance(x, mean.data(), d) / variances[0]
          : kernels::QuadDiag(x, mean.data(), variances.data(), d);
  return -0.5 * (static_cast<double>(d) * kLog2Pi + logdet + quad);
}

double GmmComponent::LogDensity(const std::vector<double>& x) const {
  return LogDensity(x.data(), PrecomputeLogDet(mean.size()));
}

std::vector<double> GmmModel::Responsibilities(
    const std::vector<double>& x) const {
  std::vector<double> logp(components.size());
  for (size_t c = 0; c < components.size(); ++c) {
    logp[c] = std::log(std::max(components[c].weight, 1e-300)) +
              components[c].LogDensity(x);
  }
  const double lse = LogSumExp(logp);
  std::vector<double> r(components.size());
  for (size_t c = 0; c < components.size(); ++c) {
    r[c] = std::exp(logp[c] - lse);
  }
  return r;
}

double GmmModel::LogDensity(const std::vector<double>& x) const {
  std::vector<double> logp(components.size());
  for (size_t c = 0; c < components.size(); ++c) {
    logp[c] = std::log(std::max(components[c].weight, 1e-300)) +
              components[c].LogDensity(x);
  }
  return LogSumExp(logp);
}

std::vector<int> GmmModel::HardAssign(const Matrix& data) const {
  std::vector<int> labels(data.rows(), -1);
  const size_t kk = components.size();
  std::vector<double> logdet(kk), logw(kk), logp(kk);
  for (size_t c = 0; c < kk; ++c) {
    logdet[c] = components[c].PrecomputeLogDet(data.cols());
    logw[c] = std::log(std::max(components[c].weight, 1e-300));
  }
  for (size_t i = 0; i < data.rows(); ++i) {
    const double* x = data.row_data(i);
    // argmax of the responsibilities == argmax of the log posteriors; no
    // need to normalise through LogSumExp here.
    for (size_t c = 0; c < kk; ++c) {
      logp[c] = logw[c] + components[c].LogDensity(x, logdet[c]);
    }
    labels[i] = static_cast<int>(
        std::max_element(logp.begin(), logp.end()) - logp.begin());
  }
  return labels;
}

double GmmModel::TotalLogLikelihood(const Matrix& data) const {
  const size_t kk = components.size();
  std::vector<double> logdet(kk), logw(kk), logp(kk);
  for (size_t c = 0; c < kk; ++c) {
    logdet[c] = components[c].PrecomputeLogDet(data.cols());
    logw[c] = std::log(std::max(components[c].weight, 1e-300));
  }
  double s = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    const double* x = data.row_data(i);
    for (size_t c = 0; c < kk; ++c) {
      logp[c] = logw[c] + components[c].LogDensity(x, logdet[c]);
    }
    s += LogSumExp(logp);
  }
  return s;
}

Result<GmmModel> InitGmm(const Matrix& data, size_t k, CovarianceType cov,
                         uint64_t seed) {
  if (k == 0) return Status::InvalidArgument("InitGmm: k must be > 0");
  if (data.rows() < k) {
    return Status::InvalidArgument("InitGmm: fewer objects than components");
  }
  KMeansOptions km;
  km.k = k;
  km.max_iters = 5;
  km.seed = seed;
  MC_ASSIGN_OR_RETURN(Clustering seed_clust, RunKMeans(data, km));

  const size_t d = data.cols();
  // Global per-dimension variance as the starting spread.
  const std::vector<double> mean = RowMean(data);
  std::vector<double> var(d, 0.0);
  for (size_t i = 0; i < data.rows(); ++i) {
    kernels::AxpySqDiff(1.0, data.row_data(i), mean.data(), var.data(), d);
  }
  for (double& v : var) {
    v /= std::max<size_t>(1, data.rows() - 1);
    v = std::max(v, 1e-6);
  }

  GmmModel model;
  model.components.resize(k);
  for (size_t c = 0; c < k; ++c) {
    GmmComponent& comp = model.components[c];
    comp.weight = 1.0 / static_cast<double>(k);
    comp.mean = seed_clust.centroids.Row(c);
    if (cov == CovarianceType::kSpherical) {
      double avg = 0.0;
      for (double v : var) avg += v;
      comp.variances = {avg / static_cast<double>(d)};
    } else {
      comp.variances = var;
    }
  }
  return model;
}

Status MStepFromResponsibilities(const Matrix& data,
                                 const Matrix& responsibilities,
                                 double variance_floor, GmmModel* model) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = model->k();
  if (responsibilities.rows() != n || responsibilities.cols() != k) {
    return Status::InvalidArgument("MStep: responsibility shape mismatch");
  }
  for (size_t c = 0; c < k; ++c) {
    GmmComponent& comp = model->components[c];
    double nc = 0.0;
    std::vector<double> mean(d, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double r = responsibilities.at(i, c);
      nc += r;
      kernels::Axpy(r, data.row_data(i), mean.data(), d);
    }
    if (nc < 1e-10) {
      // Dead component: keep parameters, zero weight.
      comp.weight = 1e-10;
      continue;
    }
    for (double& m : mean) m /= nc;
    const bool spherical = comp.variances.size() == 1;
    std::vector<double> var(spherical ? 1 : d, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double r = responsibilities.at(i, c);
      const double* row = data.row_data(i);
      if (spherical) {
        const double s = kernels::SquaredDistance(row, mean.data(), d);
        var[0] += r * s / static_cast<double>(d);
      } else {
        kernels::AxpySqDiff(r, row, mean.data(), var.data(), d);
      }
    }
    for (double& v : var) {
      v /= nc;
      // Degenerate covariance recovery: a collapsed or numerically
      // poisoned variance is clamped to the floor instead of propagating
      // a zero/NaN into the next E-step's densities.
      v = std::isfinite(v) ? std::max(v, variance_floor) : variance_floor;
    }
    comp.weight = nc / static_cast<double>(n);
    comp.mean = std::move(mean);
    comp.variances = std::move(var);
  }
  // Renormalise weights.
  double total = 0.0;
  for (const GmmComponent& c : model->components) total += c.weight;
  if (total > 0) {
    for (GmmComponent& c : model->components) c.weight /= total;
  }
  return Status::OK();
}

Result<double> EmStep(const Matrix& data, double variance_floor,
                      GmmModel* model) {
  const size_t n = data.rows();
  const size_t k = model->k();
  Matrix resp(n, k);
  double ll = 0.0;
  // Per-component log-determinants and log-weights are loop invariants of
  // the E-step; hoisting them removes a d-length log() sweep per point.
  std::vector<double> logdet(k), logw(k);
  for (size_t c = 0; c < k; ++c) {
    logdet[c] = model->components[c].PrecomputeLogDet(data.cols());
    logw[c] = std::log(std::max(model->components[c].weight, 1e-300));
  }
  std::vector<double> logp(k);
  for (size_t i = 0; i < n; ++i) {
    const double* x = data.row_data(i);
    for (size_t c = 0; c < k; ++c) {
      logp[c] = logw[c] + model->components[c].LogDensity(x, logdet[c]);
    }
    const double lse = LogSumExp(logp);
    ll += lse;
    for (size_t c = 0; c < k; ++c) {
      resp.at(i, c) = std::exp(logp[c] - lse);
    }
  }
  MC_RETURN_IF_ERROR(
      MStepFromResponsibilities(data, resp, variance_floor, model));
  return ll;
}

namespace {

/// Mid-restart resume state of one EM restart; see the k-means
/// equivalent for the protocol.
struct GmmSeed {
  size_t start_iter = 0;
  GmmModel model;
  bool has_prev = false;
  double prev_ll = 0.0;
};

// One EM restart under the shared budget tracker. Returns
// kComputationError on a non-finite log-likelihood (numerical degeneracy
// or an injected fault), kCancelled on cooperative cancellation. `mid` is
// the checkpointed mid-restart state: read when `resuming`, refreshed
// whenever `persist` serializes a snapshot.
Result<GmmModel> FitGmmOnce(const Matrix& data, const GmmOptions& options,
                            uint64_t seed, BudgetTracker* guard,
                            size_t restart, ConvergenceRecorder* recorder,
                            GmmSeed* mid, bool resuming,
                            ckpt::RestartPersistFn persist) {
  GmmModel model;
  double prev_ll = -std::numeric_limits<double>::infinity();
  size_t start_iter = 0;
  if (resuming) {
    model = mid->model;
    if (mid->has_prev) prev_ll = mid->prev_ll;
    start_iter = mid->start_iter;
  } else {
    MC_ASSIGN_OR_RETURN(
        model, InitGmm(data, options.k, options.covariance, seed));
  }
  // Persistence point before iteration `next_iter`.
  const auto checkpoint = [&](size_t next_iter, bool flush) {
    return persist(flush, [&] {
      mid->start_iter = next_iter;
      mid->model = model;
      mid->has_prev = std::isfinite(prev_ll);
      // A missing previous log-likelihood (-inf) is stored as 0, which
      // JSON can represent.
      mid->prev_ll = mid->has_prev ? prev_ll : 0.0;
    });
  };
  for (size_t iter = start_iter; iter < options.max_iters; ++iter) {
    if (guard->Cancelled()) {
      checkpoint(iter, /*flush=*/true);
      return guard->CancelledStatus();
    }
    if (guard->ShouldStop(iter)) break;
    MC_METRIC_COUNT("cluster.gmm.iterations", 1);
    MULTICLUST_TRACE_SPAN("cluster.gmm.em_step");
    MC_ASSIGN_OR_RETURN(double ll,
                        EmStep(data, options.variance_floor, &model));
    if (MC_FAULT_FIRES("gmm", FaultKind::kInjectNaN, iter)) {
      ll = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("gmm", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "GMM-EM: injected allocation failure growing the responsibility "
          "matrix at iteration " + std::to_string(iter));
    }
    model.iterations = iter + 1;
    if (!std::isfinite(ll)) {
      return Status::ComputationError(
          "GMM-EM: non-finite log-likelihood at iteration " +
          std::to_string(iter));
    }
    if (recorder->enabled()) {
      // Dead components survive with a floor weight (see MStep); count
      // them as this iteration's degeneracy recoveries.
      size_t dead = 0;
      for (const GmmComponent& c : model.components) {
        if (c.weight <= 1e-8) ++dead;
      }
      const double delta = std::isfinite(prev_ll) ? ll - prev_ll : 0.0;
      recorder->Record(restart, iter, ll, delta, dead);
    }
    if (std::isfinite(prev_ll) &&
        std::fabs(ll - prev_ll) <= options.tol * (std::fabs(prev_ll) + 1.0) &&
        !MC_FAULT_FIRES("gmm", FaultKind::kForceNonConvergence, iter)) {
      model.converged = true;
      break;
    }
    prev_ll = ll;
    MC_RETURN_IF_ERROR(checkpoint(iter + 1, /*flush=*/false));
  }
  model.log_likelihood = model.TotalLogLikelihood(data);
  if (!std::isfinite(model.log_likelihood)) {
    return Status::ComputationError("GMM-EM: non-finite final log-likelihood");
  }
  return model;
}

// Whole-invocation checkpoint state of FitGmm (restart loop level).
struct GmmCkptState {
  size_t step = 0;
  size_t restart = 0;
  Rng outer_rng;
  size_t winner = 0;
  bool have_best = false;
  GmmModel best;
  Status last_error = Status::OK();
  ConvergenceTrace trace;
  bool mid_restart = false;
  GmmSeed seed;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("restart", restart);
    ar("outer_rng", outer_rng);
    ar("winner", winner);
    if (ar.Guard("have_best", have_best)) {
      ar("best", best);
      // Checkpoint-only copy of best.log_likelihood; read and dropped.
      double best_ll = best.log_likelihood;
      ar("best_ll", best_ll);
    }
    ar("last_error", last_error);
    ar("trace", trace);
    if (ar.Guard("mid_restart", mid_restart)) {
      ar("next_iter", seed.start_iter);
      ar("model", seed.model);
      ar("has_prev", seed.has_prev);
      ar("prev_ll", seed.prev_ll);
    }
  }
};

uint64_t GmmFingerprint(const Matrix& data, const GmmOptions& options) {
  Fingerprint fp;
  fp.Mix("gmm");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.Mix(static_cast<uint64_t>(options.restarts));
  fp.MixDouble(options.tol);
  fp.MixDouble(options.variance_floor);
  fp.Mix(static_cast<uint64_t>(options.covariance == CovarianceType::kSpherical
                                   ? 1
                                   : 0));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<GmmModel> FitGmm(const Matrix& data, const GmmOptions& options) {
  if (data.rows() == 0 || data.cols() == 0) {
    return Status::InvalidArgument("FitGmm: empty data");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("GMM-EM", data));
  MULTICLUST_TRACE_SPAN("cluster.gmm.fit");
  BudgetTracker guard(options.budget, "gmm");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  recorder.SetExpectedIterations(
      options.budget.max_iterations != 0
          ? std::min(options.max_iters, options.budget.max_iterations)
          : options.max_iters);
  Checkpointer* ck = options.budget.checkpoint;
  const ckpt::Slot slot{
      ck, "gmm", ck != nullptr ? GmmFingerprint(data, options) : 0,
      options.diagnostics};

  GmmCkptState state;
  state.outer_rng = Rng(options.seed);
  // A restart's seed is drawn from the outer stream in restart order; a
  // resumed restart continues from its checkpointed model instead.
  const auto run_one = [&](size_t r, bool resuming,
                           ckpt::RestartPersistFn persist) {
    MC_METRIC_COUNT("cluster.gmm.restarts", 1);
    const uint64_t restart_seed = resuming ? 0 : state.outer_rng.NextU64();
    return FitGmmOnce(data, options, restart_seed, &guard, r, &recorder,
                      &state.seed, resuming, persist);
  };
  // Exact negation: the highest log-likelihood wins.
  MC_RETURN_IF_ERROR(ckpt::RunRestarts(
      slot, &state, options.restarts, &guard, &recorder, run_one,
      [](const GmmModel& model) { return -model.log_likelihood; }));
  recorder.Finish("gmm", state.best.iterations, state.best.converged);
  return std::move(state.best);
}

Result<Clustering> RunGmm(const Matrix& data, const GmmOptions& options) {
  MC_ASSIGN_OR_RETURN(GmmModel model, FitGmm(data, options));
  Clustering c;
  c.labels = model.HardAssign(data);
  c.quality = model.log_likelihood;
  c.algorithm = "gmm-em";
  c.iterations = model.iterations;
  c.converged = model.converged;
  Matrix centroids(model.k(), data.cols());
  for (size_t i = 0; i < model.k(); ++i) {
    centroids.SetRow(i, model.components[i].mean);
  }
  c.centroids = std::move(centroids);
  return c;
}

}  // namespace multiclust
