#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/checkpoint.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

// Per-row squared norms ||x_i||^2 (for the norm-form assignment step).
std::vector<double> RowSquaredNorms(const Matrix& m) {
  std::vector<double> norms(m.rows());
  ParallelFor(0, m.rows(), 1024, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      norms[i] = kernels::SquaredNorm(m.row_data(i), m.cols());
    }
  });
  return norms;
}

// Exact-form SSE via deterministic chunked reduction (fixed grain), so the
// objective is bit-identical for any thread count. Each chunk sums its
// rows' distances to their own centres in ascending order.
double SseOf(const Matrix& data, const Matrix& centers,
             const std::vector<int>& labels) {
  constexpr size_t kGrain = 1024;
  return ParallelReduce(
      0, data.rows(), kGrain, 0.0,
      [&](size_t lo, size_t hi) {
        double dist[kGrain];
        kernels::AssignedSquaredDistances(data.row_data(lo), hi - lo,
                                          centers.row_data(0),
                                          labels.data() + lo, data.cols(),
                                          dist);
        double s = 0.0;
        for (size_t i = 0; i < hi - lo; ++i) s += dist[i];
        return s;
      },
      [](double a, double b) { return a + b; });
}

Matrix InitCenters(const Matrix& data, size_t k, bool plus_plus, Rng* rng) {
  MULTICLUST_TRACE_SPAN("cluster.kmeans.init");
  const size_t n = data.rows();
  const size_t d = data.cols();
  Matrix centers(k, d);
  if (!plus_plus) {
    const std::vector<size_t> picks = rng->SampleWithoutReplacement(n, k);
    for (size_t c = 0; c < k; ++c) centers.CopyRowFrom(data, picks[c], c);
    return centers;
  }
  // k-means++: first centre uniform, then proportional to D^2. The D^2
  // updates against the latest centre are independent per point, so they
  // parallelize without affecting the sampled sequence.
  centers.CopyRowFrom(data, rng->NextIndex(n), 0);
  std::vector<double> d2(n, std::numeric_limits<double>::infinity());
  constexpr size_t kGrain = 512;
  for (size_t c = 1; c < k; ++c) {
    ParallelFor(0, n, kGrain, [&](size_t lo, size_t hi) {
      // A serial pool runs the whole range as one chunk.
      double dist[kGrain];
      for (size_t b = lo; b < hi; b += kGrain) {
        const size_t count = std::min(kGrain, hi - b);
        kernels::SquaredDistanceRow(centers.row_data(c - 1), data.row_data(b),
                                    count, d, dist);
        for (size_t i = 0; i < count; ++i) {
          d2[b + i] = std::min(d2[b + i], dist[i]);
        }
      }
    });
    centers.CopyRowFrom(data, rng->Categorical(d2), c);
  }
  return centers;
}

struct LloydResult {
  std::vector<int> labels;
  Matrix centers;
  double sse = 0.0;
  size_t iterations = 0;
  bool converged = false;
};

/// Mid-restart resume state: continue the Lloyd loop of one restart from a
/// checkpointed iteration boundary instead of (re)initialising centres.
struct LloydSeed {
  size_t start_iter = 0;
  Matrix centers;
  std::vector<int> labels;
};

// One Lloyd restart. `x_norms` are the rows' squared norms. `mid` is the
// checkpointed mid-restart state: read when `resuming`, refreshed whenever
// `persist` serializes a snapshot.
Result<LloydResult> RunLloyd(const Matrix& data,
                             const std::vector<double>& x_norms, size_t k,
                             size_t max_iters, double tol, bool plus_plus,
                             Rng* rng, BudgetTracker* guard, size_t restart,
                             ConvergenceRecorder* recorder, LloydSeed* mid,
                             bool resuming, ckpt::RestartPersistFn persist) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  LloydResult r;
  size_t start_iter = 0;
  if (resuming) {
    r.centers = mid->centers;
    r.labels = mid->labels;
    start_iter = mid->start_iter;
    r.iterations = start_iter;
  } else {
    r.centers = InitCenters(data, k, plus_plus, rng);
    r.labels.assign(n, 0);
  }
  // Persistence point before iteration `next_iter`.
  const auto checkpoint = [&](size_t next_iter, bool flush) {
    return persist(flush, [&] {
      mid->start_iter = next_iter;
      mid->centers = r.centers;
      mid->labels = r.labels;
    });
  };

  for (size_t iter = start_iter; iter < max_iters; ++iter) {
    if (guard->Cancelled()) {
      checkpoint(iter, /*flush=*/true);
      return guard->CancelledStatus();
    }
    if (guard->ShouldStop(iter)) break;
    MC_METRIC_COUNT("cluster.kmeans.iterations", 1);
    {
      MULTICLUST_TRACE_SPAN("cluster.kmeans.assign");
      // Assignment step in the norm form ||x||^2 - 2 x.c + ||c||^2: the
      // inner loop is a plain dot product. Labels are written per point,
      // so the step is bit-identical for any thread count.
      const std::vector<double> c_norms = RowSquaredNorms(r.centers);
      ParallelFor(0, n, 256, [&](size_t lo, size_t hi) {
        kernels::NearestNormFormRows(data.row_data(lo), hi - lo,
                                     r.centers.row_data(0), k, d,
                                     x_norms.data() + lo, c_norms.data(),
                                     r.labels.data() + lo);
      });
    }
    MULTICLUST_TRACE_SPAN("cluster.kmeans.update");
    ClusterSums cs = SumByCluster(data, r.labels, k);
    Matrix next = cs.TakeMeans();
    size_t reseeds = 0;
    for (size_t c = 0; c < k; ++c) {
      if (cs.counts[c] != 0) continue;
      // Re-seed an empty cluster at a random object.
      next.CopyRowFrom(data, rng->NextIndex(n), c);
      ++reseeds;
    }
    if (reseeds > 0) MC_METRIC_COUNT("cluster.kmeans.reseeds", reseeds);
    if (MC_FAULT_FIRES("kmeans", FaultKind::kInjectNaN, iter)) {
      next.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("kmeans", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "k-means: injected allocation failure growing the centre matrix "
          "at iteration " + std::to_string(iter));
    }
    const double shift = next.MaxAbsDiff(r.centers);
    r.centers = std::move(next);
    r.iterations = iter + 1;
    if (!std::isfinite(shift)) {
      return Status::ComputationError(
          "k-means: non-finite centre shift at iteration " +
          std::to_string(iter));
    }
    if (recorder->enabled()) {
      recorder->Record(restart, iter, SseOf(data, r.centers, r.labels),
                       shift, reseeds);
    }
    if (shift <= tol &&
        !MC_FAULT_FIRES("kmeans", FaultKind::kForceNonConvergence, iter)) {
      r.converged = true;
      break;
    }
    // Persistence point: this restart continues, so a resumed run picks up
    // at iter + 1. The restart-boundary snapshot of ckpt::RunRestarts
    // covers the converged/exhausted exits.
    MC_RETURN_IF_ERROR(checkpoint(iter + 1, /*flush=*/false));
  }

  r.sse = SseOf(data, r.centers, r.labels);
  return r;
}

// Shared checkpoint state of one RunKMeans invocation: everything outside
// the Lloyd loop that shapes the remaining computation.
struct KMeansCkptState {
  size_t step = 0;          ///< monotonic persistence-point counter
  size_t restart = 0;       ///< restart to run (or resume) next
  Rng outer_rng;            ///< stream position after this restart's Split
  size_t winner = 0;
  bool have_best = false;
  LloydResult best;
  Status last_error = Status::OK();
  ConvergenceTrace trace;
  bool mid_restart = false;  ///< payload carries LloydSeed + child rng
  Rng child_rng;             ///< the running restart's stream
  LloydSeed seed;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("restart", restart);
    ar("outer_rng", outer_rng);
    ar("winner", winner);
    if (ar.Guard("have_best", have_best)) {
      ar("best_labels", best.labels);
      ar("best_centers", best.centers);
      ar("best_sse", best.sse);
      ar("best_iterations", best.iterations);
      ar("best_converged", best.converged);
    }
    ar("last_error", last_error);
    ar("trace", trace);
    if (ar.Guard("mid_restart", mid_restart)) {
      ar("child_rng", child_rng);
      ar("next_iter", seed.start_iter);
      ar("centers", seed.centers);
      ar("labels", seed.labels);
    }
  }
};

uint64_t KMeansFingerprint(const Matrix& data, const KMeansOptions& options) {
  Fingerprint fp;
  fp.Mix("kmeans");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.MixDouble(options.tol);
  fp.Mix(static_cast<uint64_t>(options.plus_plus_init ? 1 : 0));
  // The slot of a removed precision option: fingerprints must not move.
  fp.Mix(uint64_t{0});
  fp.Mix(static_cast<uint64_t>(options.restarts));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(data);
  return fp.value();
}

}  // namespace

Result<Clustering> RunKMeans(const Matrix& data,
                             const KMeansOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k-means: k must be > 0");
  if (data.rows() < options.k) {
    return Status::InvalidArgument("k-means: fewer objects than clusters");
  }
  MC_RETURN_IF_ERROR(ValidateMatrix("k-means", data));
  MULTICLUST_TRACE_SPAN("cluster.kmeans.run");
  BudgetTracker guard(options.budget, "kmeans");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  recorder.SetExpectedIterations(options.max_iters);
  Checkpointer* ck = options.budget.checkpoint;
  const ckpt::Slot slot{
      ck, "kmeans", ck != nullptr ? KMeansFingerprint(data, options) : 0,
      options.diagnostics};

  KMeansCkptState state;
  state.outer_rng = Rng(options.seed);
  const std::vector<double> x_norms = RowSquaredNorms(data);
  // A restart's child stream is split from the outer stream in restart
  // order; a resumed restart continues from its checkpointed child.
  const auto run_one = [&](size_t r, bool resuming,
                           ckpt::RestartPersistFn persist) {
    MC_METRIC_COUNT("cluster.kmeans.restarts", 1);
    if (!resuming) state.child_rng = state.outer_rng.Split();
    return RunLloyd(data, x_norms, options.k, options.max_iters,
                    options.tol, options.plus_plus_init, &state.child_rng,
                    &guard, r, &recorder, &state.seed, resuming, persist);
  };
  MC_RETURN_IF_ERROR(ckpt::RunRestarts(
      slot, &state, options.restarts, &guard, &recorder, run_one,
      [](const LloydResult& run) { return run.sse; }));
  recorder.Finish("kmeans", state.best.iterations, state.best.converged);
  Clustering c;
  c.labels = std::move(state.best.labels);
  c.centroids = std::move(state.best.centers);
  c.quality = state.best.sse;
  c.algorithm = "kmeans";
  c.iterations = state.best.iterations;
  c.converged = state.best.converged;
  return c;
}

}  // namespace multiclust
