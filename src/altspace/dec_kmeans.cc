#include "altspace/dec_kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "cluster/clustering.h"
#include "cluster/kmeans.h"
#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "linalg/decomposition.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

struct State {
  // Per clustering t: representatives (k_t x d), labels, means (k_t x d).
  std::vector<Matrix> reps;
  std::vector<std::vector<int>> labels;
  std::vector<Matrix> means;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("reps", reps);
    ar("labels", labels);
    ar("means", means);
  }
};

// Cluster means of `cs` (taken by value: its sums become the means); an
// empty cluster keeps its rep as its mean.
Matrix MeansOf(ClusterSums cs, const Matrix& reps) {
  Matrix means = cs.TakeMeans();
  for (size_t c = 0; c < cs.counts.size(); ++c) {
    if (cs.counts[c] == 0) means.SetRow(c, reps.Row(c));
  }
  return means;
}

// acc + sum_i ||x_i - reps_{labels_i}||^2, added in ascending i (unassigned
// rows add +0, which leaves the never-negative-zero sum unchanged). The
// per-row distances are computed on the pool first.
double AddCompactness(double acc, const Matrix& data, const Matrix& reps,
                      const std::vector<int>& labels) {
  std::vector<double> dist(data.rows());
  ParallelFor(0, data.rows(), 256, [&](size_t lo, size_t hi) {
    kernels::AssignedSquaredDistances(data.row_data(lo), hi - lo,
                                      reps.row_data(0), labels.data() + lo,
                                      data.cols(), dist.data() + lo);
  });
  for (double v : dist) acc += v;
  return acc;
}

double Objective(const Matrix& data, const State& s, double lambda) {
  double g = 0.0;
  // Compactness.
  for (size_t t = 0; t < s.reps.size(); ++t) {
    g = AddCompactness(g, data, s.reps[t], s.labels[t]);
  }
  // Decorrelation penalty between every ordered pair of clusterings.
  for (size_t t = 0; t < s.reps.size(); ++t) {
    for (size_t u = 0; u < s.reps.size(); ++u) {
      if (t == u) continue;
      for (size_t i = 0; i < s.reps[t].rows(); ++i) {
        for (size_t j = 0; j < s.means[u].rows(); ++j) {
          const double dot = kernels::Dot(s.means[u].row_data(j),
                                          s.reps[t].row_data(i), data.cols());
          g += lambda * dot * dot;
        }
      }
    }
  }
  return g;
}

// One alternating-minimisation restart under the shared budget tracker.
struct RestartOutcome {
  State state;
  std::vector<double> history;
  size_t iterations = 0;
  bool converged = false;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("state", state);
    ar("history", history);
    ar("iterations", iterations);
    ar("converged", converged);
  }
};

/// Mid-restart resume state; same protocol as the k-means checkpointing.
/// The shared outer rng is owned by the caller, which serializes it
/// alongside.
struct DecResume {
  size_t start_iter = 0;
  State state;
  std::vector<double> history;
};

// `mid` is the checkpointed mid-restart state: read when `resuming`,
// refreshed whenever `persist` serializes a snapshot.
Result<RestartOutcome> RunRestart(const Matrix& data,
                                  const DecKMeansOptions& options,
                                  Rng* rng, BudgetTracker* guard,
                                  size_t restart,
                                  ConvergenceRecorder* recorder,
                                  DecResume* mid, bool resuming,
                                  ckpt::RestartPersistFn persist) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t num_clusterings = options.ks.size();
  RestartOutcome out;
  State& s = out.state;
  std::vector<double>& history = out.history;
  size_t start_iter = 0;
  double prev = 0.0;
  if (resuming) {
    s = mid->state;
    history = mid->history;
    start_iter = mid->start_iter;
    out.iterations = start_iter;
    prev = history.back();
  } else {
    s.reps.resize(num_clusterings);
    s.labels.resize(num_clusterings);
    s.means.resize(num_clusterings);
    // Initialise each clustering's representatives from an independent
    // k-means run with its own seed (diverse starting points).
    for (size_t t = 0; t < num_clusterings; ++t) {
      KMeansOptions km;
      km.k = options.ks[t];
      km.max_iters = 3;
      km.seed = rng->NextU64();
      MC_ASSIGN_OR_RETURN(Clustering init, RunKMeans(data, km));
      s.reps[t] = init.centroids;
      s.labels[t] = init.labels;
      s.means[t] = MeansOf(SumByCluster(data, s.labels[t], options.ks[t]),
                           s.reps[t]);
    }
    prev = Objective(data, s, options.lambda);
    history.push_back(prev);
  }

  // Persistence point before iteration `next_iter`.
  const auto checkpoint = [&](size_t next_iter, bool flush) {
    return persist(flush, [&] {
      mid->start_iter = next_iter;
      mid->state = s;
      mid->history = history;
    });
  };
  for (size_t iter = start_iter; iter < options.max_iters; ++iter) {
    if (guard->Cancelled()) {
      checkpoint(iter, /*flush=*/true);
      return guard->CancelledStatus();
    }
    if (guard->ShouldStop(iter)) break;
    MC_METRIC_COUNT("altspace.dec_kmeans.iterations", 1);
    MULTICLUST_TRACE_SPAN("altspace.dec_kmeans.iteration");
    size_t reseeds = 0;
    for (size_t t = 0; t < num_clusterings; ++t) {
      // 1. Assignment to nearest representative.
      s.labels[t] = AssignToNearest(data, s.reps[t]);
      // 2. Means from assignment; the counts and sums also feed step 3.
      const ClusterSums cs = SumByCluster(data, s.labels[t], options.ks[t]);
      s.means[t] = MeansOf(cs, s.reps[t]);
      // 3. Closed-form representative update: minimising
      //    sum_{x in C_i} ||x - r||^2 + lambda * sum_{u != t, j}
      //    (beta^u_j^T r)^2 gives
      //    (|C_i| I + lambda * B) r = sum_{x in C_i} x,
      //    with B = sum_{u != t} sum_j beta^u_j beta^u_j^T.
      Matrix b(d, d);
      for (size_t u = 0; u < num_clusterings; ++u) {
        if (u == t) continue;
        for (size_t j = 0; j < s.means[u].rows(); ++j) {
          const double* m = s.means[u].row_data(j);
          for (size_t a = 0; a < d; ++a) {
            // Rank-1 row update b[a,:] += (lambda * m[a]) * m. Same
            // left-associated product as the scalar loop, elementwise —
            // bit-identical to it.
            kernels::Axpy(options.lambda * m[a], m, b.row_data(a), d);
          }
        }
      }
      for (size_t c = 0; c < options.ks[t]; ++c) {
        if (cs.counts[c] == 0) {
          // Re-seed an empty cluster at a random object.
          s.reps[t].SetRow(c, data.Row(rng->NextIndex(n)));
          ++reseeds;
          continue;
        }
        Matrix a = b;
        for (size_t j = 0; j < d; ++j) {
          a.at(j, j) += static_cast<double>(cs.counts[c]) + 1e-9;
        }
        MC_ASSIGN_OR_RETURN(std::vector<double> r,
                            SolveSpd(a, cs.sums.Row(c)));
        s.reps[t].SetRow(c, r);
      }
    }
    double cur = Objective(data, s, options.lambda);
    if (MC_FAULT_FIRES("dec-kmeans", FaultKind::kInjectNaN, iter)) {
      cur = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("dec-kmeans", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "dec-kmeans: injected allocation failure growing the "
          "representative matrices at iteration " + std::to_string(iter));
    }
    history.push_back(cur);
    out.iterations = iter + 1;
    if (!std::isfinite(cur)) {
      return Status::ComputationError(
          "dec-kmeans: non-finite objective at iteration " +
          std::to_string(iter));
    }
    if (reseeds > 0) MC_METRIC_COUNT("altspace.dec_kmeans.reseeds", reseeds);
    if (recorder->enabled()) {
      recorder->Record(restart, iter, cur, std::fabs(prev - cur), reseeds);
    }
    if (std::fabs(prev - cur) <= options.tol * (std::fabs(prev) + 1.0) &&
        !MC_FAULT_FIRES("dec-kmeans", FaultKind::kForceNonConvergence,
                        iter)) {
      out.converged = true;
      break;
    }
    prev = cur;
    MC_RETURN_IF_ERROR(checkpoint(iter + 1, /*flush=*/false));
  }
  return out;
}

// Whole-invocation checkpoint state (restart loop level).
struct DecCkptState {
  size_t step = 0;
  size_t restart = 0;
  Rng rng;  ///< the single shared generator (init seeds + reseeds)
  size_t winner = 0;
  bool have_best = false;
  RestartOutcome best;
  Status last_error = Status::OK();
  ConvergenceTrace trace;
  bool mid_restart = false;
  DecResume seed;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("restart", restart);
    ar("rng", rng);
    ar("winner", winner);
    if (ar.Guard("have_best", have_best)) {
      ar("best", best);
      // Checkpoint-only copy of best.history.back(); read and dropped.
      double best_objective = best.history.empty() ? 0.0 : best.history.back();
      ar("best_objective", best_objective);
    }
    ar("last_error", last_error);
    ar("trace", trace);
    if (ar.Guard("mid_restart", mid_restart)) {
      ar("next_iter", seed.start_iter);
      ar("mid_state", seed.state);
      ar("mid_history", seed.history);
    }
  }
};

uint64_t DecFingerprint(const Matrix& data, const DecKMeansOptions& options) {
  Fingerprint fp;
  fp.Mix("dec-kmeans");
  for (size_t k : options.ks) fp.Mix(static_cast<uint64_t>(k));
  fp.Mix(static_cast<uint64_t>(options.ks.size()));
  fp.MixDouble(options.lambda);
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.Mix(static_cast<uint64_t>(options.restarts));
  fp.MixDouble(options.tol);
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<DecKMeansResult> RunDecorrelatedKMeans(
    const Matrix& data, const DecKMeansOptions& options) {
  const size_t n = data.rows();
  const size_t num_clusterings = options.ks.size();
  if (num_clusterings < 2) {
    return Status::InvalidArgument(
        "dec-kmeans: need at least two clusterings (ks.size() >= 2)");
  }
  for (size_t k : options.ks) {
    if (k == 0 || k > n) {
      return Status::InvalidArgument("dec-kmeans: invalid k");
    }
  }
  if (options.lambda < 0) {
    return Status::InvalidArgument("dec-kmeans: lambda must be >= 0");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("dec-kmeans", data));

  MULTICLUST_TRACE_SPAN("altspace.dec_kmeans.run");
  BudgetTracker guard(options.budget, "dec-kmeans");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  recorder.SetExpectedIterations(options.max_iters);
  Checkpointer* ck = options.budget.checkpoint;
  const ckpt::Slot slot{
      ck, "dec-kmeans", ck != nullptr ? DecFingerprint(data, options) : 0,
      options.diagnostics};

  DecCkptState state;
  state.rng = Rng(options.seed);
  const auto run_one = [&](size_t r, bool resuming,
                           ckpt::RestartPersistFn persist) {
    MC_METRIC_COUNT("altspace.dec_kmeans.restarts", 1);
    return RunRestart(data, options, &state.rng, &guard, r, &recorder,
                      &state.seed, resuming, persist);
  };
  MC_RETURN_IF_ERROR(ckpt::RunRestarts(
      slot, &state, options.restarts, &guard, &recorder, run_one,
      [](const RestartOutcome& run) { return run.history.back(); }));
  RestartOutcome& best = state.best;
  recorder.Finish("dec-kmeans", best.iterations, best.converged);

  DecKMeansResult result;
  result.objective = best.history.back();
  result.history = std::move(best.history);
  result.iterations = best.iterations;
  result.converged = best.converged;
  for (size_t t = 0; t < num_clusterings; ++t) {
    Clustering c;
    c.labels = best.state.labels[t];
    c.centroids = best.state.reps[t];
    c.algorithm = "dec-kmeans";
    c.iterations = best.iterations;
    c.converged = best.converged;
    c.quality = AddCompactness(0.0, data, c.centroids, c.labels);
    MC_RETURN_IF_ERROR(result.solutions.Add(std::move(c)));
  }
  return result;
}

}  // namespace multiclust
