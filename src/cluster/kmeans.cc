#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/checkpoint.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/trace.h"
#include "linalg/kernels.h"

namespace multiclust {

namespace {

// Squared distance from row i of data to row c of centers.
double RowCenterDist2(const Matrix& data, size_t i, const Matrix& centers,
                      size_t c) {
  return kernels::SquaredDistance(data.row_data(i), centers.row_data(c),
                                  data.cols());
}

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

// Row-major float32 copy of a matrix (the opt-in low-precision path).
std::vector<float> ToFloat32(const Matrix& m) {
  std::vector<float> out(m.rows() * m.cols());
  const double* src = m.row_data(0);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<float>(src[i]);
  return out;
}

// Exact-form SSE via deterministic chunked reduction (fixed grain), so the
// objective is bit-identical for any thread count.
double SseOf(const Matrix& data, const Matrix& centers,
             const std::vector<int>& labels) {
  return ParallelReduce(
      0, data.rows(), 1024, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) {
          s += RowCenterDist2(data, i, centers, labels[i]);
        }
        return s;
      },
      [](double a, double b) { return a + b; });
}

// `data_f32` is non-null on the opt-in float32 path: the D^2 scans then
// run in f32 against an f32 copy of the latest centre (the sampled
// sequence depends on the precision, but stays deterministic for a fixed
// setting).
Matrix InitCenters(const Matrix& data, size_t k, bool plus_plus, Rng* rng,
                   const std::vector<float>* data_f32) {
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
  std::vector<float> ctr_f32(data_f32 != nullptr ? d : 0);
  for (size_t c = 1; c < k; ++c) {
    if (data_f32 != nullptr) {
      const double* ctr = centers.row_data(c - 1);
      for (size_t j = 0; j < d; ++j) ctr_f32[j] = static_cast<float>(ctr[j]);
    }
    ParallelFor(0, n, 512, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        const double dist =
            data_f32 != nullptr
                ? static_cast<double>(kernels::SquaredDistanceF(
                      data_f32->data() + i * d, ctr_f32.data(), d))
                : RowCenterDist2(data, i, centers, c - 1);
        d2[i] = std::min(d2[i], dist);
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

// One Lloyd restart. `mid` is the checkpointed mid-restart state: read
// when `resuming`, refreshed whenever `persist` serializes a snapshot.
Result<LloydResult> RunLloyd(const Matrix& data, size_t k, size_t max_iters,
                             double tol, bool plus_plus, Rng* rng,
                             BudgetTracker* guard, size_t restart,
                             ConvergenceRecorder* recorder, LloydSeed* mid,
                             bool resuming, ckpt::RestartPersistFn persist,
                             const std::vector<float>* data_f32) {
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
    r.centers = InitCenters(data, k, plus_plus, rng, data_f32);
    r.labels.assign(n, 0);
  }
  const std::vector<double> x_norms =
      data_f32 != nullptr ? std::vector<double>() : RowSquaredNorms(data);
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
    if (data_f32 != nullptr) {
      MULTICLUST_TRACE_SPAN("cluster.kmeans.assign");
      // Opt-in float32 assignment: plain squared-distance form (the norm
      // form cancels catastrophically in f32). Labels are written per
      // point, so the step is bit-identical for any thread count.
      const std::vector<float> centers_f32 = ToFloat32(r.centers);
      ParallelFor(0, n, 256, [&](size_t lo, size_t hi) {
        // Telemetry FLOP tally per chunk (never per point): 3 flops per
        // element of the k x d distance scan over hi - lo points.
        telemetry::CountFlops(3 * (hi - lo) * k * d,
                              (hi - lo) * d * sizeof(float));
        for (size_t i = lo; i < hi; ++i) {
          r.labels[i] = kernels::NearestSquaredF(
              data_f32->data() + i * d, centers_f32.data(), k, d);
        }
      });
    } else {
      MULTICLUST_TRACE_SPAN("cluster.kmeans.assign");
      // Assignment step in the norm form ||x||^2 - 2 x.c + ||c||^2: the
      // inner loop is a plain dot product. Labels are written per point,
      // so the step is bit-identical for any thread count.
      const std::vector<double> c_norms = RowSquaredNorms(r.centers);
      const double* centers_flat = r.centers.row_data(0);
      ParallelFor(0, n, 256, [&](size_t lo, size_t hi) {
        // Telemetry FLOP tally per chunk (never per point): the norm-form
        // scan is a k x d dot product (2 flops/element) per point.
        telemetry::CountFlops(2 * (hi - lo) * k * d,
                              (hi - lo) * d * sizeof(double));
        for (size_t i = lo; i < hi; ++i) {
          r.labels[i] =
              kernels::NearestNormForm(data.row_data(i), centers_flat, k, d,
                                       x_norms[i], c_norms.data());
        }
      });
    }
    // Update step (always float64, also on the float32 assignment path).
    MULTICLUST_TRACE_SPAN("cluster.kmeans.update");
    Matrix next(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      ++counts[r.labels[i]];
      kernels::Add(next.row_data(r.labels[i]), data.row_data(i), d);
    }
    size_t reseeds = 0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random object.
        next.CopyRowFrom(data, rng->NextIndex(n), c);
        ++reseeds;
        continue;
      }
      double* ctr = next.row_data(c);
      for (size_t j = 0; j < d; ++j) ctr[j] /= static_cast<double>(counts[c]);
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
  // The float32 assignment path changes labels/centre trajectories, so a
  // checkpoint from one precision must not resume a run of the other.
  fp.Mix(static_cast<uint64_t>(options.assign_float32 ? 1 : 0));
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
  recorder.SetExpectedIterations(
      options.budget.max_iterations != 0
          ? std::min(options.max_iters, options.budget.max_iterations)
          : options.max_iters);
  Checkpointer* ck = options.budget.checkpoint;
  const ckpt::Slot slot{
      ck, "kmeans", ck != nullptr ? KMeansFingerprint(data, options) : 0,
      options.diagnostics};

  // Materialize the f32 copy once for all restarts on the opt-in path.
  std::vector<float> data_f32_storage;
  const std::vector<float>* data_f32 = nullptr;
  if (options.assign_float32) {
    data_f32_storage = ToFloat32(data);
    data_f32 = &data_f32_storage;
  }
  KMeansCkptState state;
  state.outer_rng = Rng(options.seed);
  // A restart's child stream is split from the outer stream in restart
  // order; a resumed restart continues from its checkpointed child.
  const auto run_one = [&](size_t r, bool resuming,
                           ckpt::RestartPersistFn persist) {
    MC_METRIC_COUNT("cluster.kmeans.restarts", 1);
    if (!resuming) state.child_rng = state.outer_rng.Split();
    return RunLloyd(data, options.k, options.max_iters, options.tol,
                    options.plus_plus_init, &state.child_rng, &guard, r,
                    &recorder, &state.seed, resuming, persist, data_f32);
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
