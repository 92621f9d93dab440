#include "multiview/co_em.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "metrics/partition_similarity.h"

namespace multiclust {

Result<double> LabelAgreement(const std::vector<int>& a,
                              const std::vector<int>& b) {
  return BestMatchAccuracy(a, b);
}

namespace {

// E-step only: responsibilities of `model` on `data`.
Matrix ComputeResponsibilities(const GmmModel& model, const Matrix& data) {
  const size_t n = data.rows();
  Matrix resp(n, model.k());
  for (size_t i = 0; i < n; ++i) {
    const std::vector<double> r = model.Responsibilities(data.Row(i));
    for (size_t c = 0; c < model.k(); ++c) resp.at(i, c) = r[c];
  }
  return resp;
}

// Checkpoint state between co-EM rounds. resp1 is NOT serialized: at every
// persistence point it equals ComputeResponsibilities(m1, view1), which
// the resume path recomputes bit-identically from the restored model.
struct CoEmCkptState {
  size_t step = 0;
  size_t next_iter = 0;
  GmmModel m1;
  GmmModel m2;
  bool has_best = false;  // best_ll starts at -inf, unrepresentable in JSON
  double best_ll = 0.0;   // 0 while !has_best
  size_t stale = 0;
  size_t iterations_done = 0;
  ConvergenceTrace trace;

  template <class Ar>
  void Fields(Ar& ar) {
    ar("step", step);
    ar("next_iter", next_iter);
    ar("m1", m1);
    ar("m2", m2);
    ar("has_best", has_best);
    ar("best_ll", best_ll);
    ar("stale", stale);
    ar("iterations_done", iterations_done);
    ar("trace", trace);
  }
};

uint64_t CoEmFingerprint(const Matrix& view1, const Matrix& view2,
                         const CoEmOptions& options) {
  Fingerprint fp;
  fp.Mix("co-em");
  fp.Mix(static_cast<uint64_t>(options.k));
  fp.Mix(static_cast<uint64_t>(options.max_iters));
  fp.MixDouble(options.variance_floor);
  fp.Mix(static_cast<uint64_t>(options.patience));
  fp.Mix(options.seed);
  fp.Mix(static_cast<uint64_t>(options.budget.max_iterations));
  fp.Mix(view1);
  fp.Mix(view2);
  return fp.value();
}

}  // namespace

Result<CoEmResult> RunCoEm(const Matrix& view1, const Matrix& view2,
                           const CoEmOptions& options) {
  if (view1.rows() != view2.rows()) {
    return Status::InvalidArgument("co-EM: views must have paired rows");
  }
  if (view1.rows() == 0) return Status::InvalidArgument("co-EM: empty data");
  MC_RETURN_IF_ERROR(ValidateMatrix("co-EM view 1", view1));
  MC_RETURN_IF_ERROR(ValidateMatrix("co-EM view 2", view2));
  MULTICLUST_TRACE_SPAN("multiview.co_em.run");
  BudgetTracker guard(options.budget, "co-em");
  ConvergenceRecorder recorder(options.diagnostics, &guard);
  recorder.SetExpectedIterations(options.max_iters);
  const size_t n = view1.rows();

  CoEmResult result;
  MC_ASSIGN_OR_RETURN(
      GmmModel m1,
      InitGmm(view1, options.k, CovarianceType::kDiagonal, options.seed));
  MC_ASSIGN_OR_RETURN(
      GmmModel m2,
      InitGmm(view2, options.k, CovarianceType::kDiagonal,
              options.seed ^ 0x9E3779B9ULL));

  // Termination: co-EM need not converge (slide 104), so run a minimum
  // number of rounds and then stop once the joint log-likelihood has been
  // flat for `patience` rounds.
  const size_t kMinIters = 10;
  double best_ll = -std::numeric_limits<double>::infinity();
  size_t stale = 0;
  size_t start_iter = 0;

  Checkpointer* ckp = options.budget.checkpoint;
  const ckpt::Slot slot{
      ckp, "co-em", ckp != nullptr ? CoEmFingerprint(view1, view2, options) : 0,
      options.diagnostics};
  size_t ckpt_step = 0;
  CoEmCkptState state;
  const auto check_k = [&](const CoEmCkptState& s) -> Status {
    return s.m1.k() == options.k && s.m2.k() == options.k
               ? Status::OK()
               : Status::ComputationError(
                     "checkpoint: component count mismatch");
  };
  if (slot.Restore(&state, check_k)) {
    m1 = std::move(state.m1);
    m2 = std::move(state.m2);
    best_ll = state.has_best ? state.best_ll
                             : -std::numeric_limits<double>::infinity();
    stale = state.stale;
    start_iter = state.next_iter;
    result.iterations = state.iterations_done;
    ckpt_step = state.step;
  }
  // The model/trace copies run only for snapshots that are actually
  // serialized, so an armed-but-not-due point pays only the policy check.
  auto snapshot = [&](size_t next_iter, bool flush) -> Status {
    return slot.Snapshot(&ckpt_step, flush, [&] {
      CoEmCkptState s;
      s.step = ckpt_step;
      s.next_iter = next_iter;
      s.m1 = m1;
      s.m2 = m2;
      s.has_best = std::isfinite(best_ll);
      s.best_ll = s.has_best ? best_ll : 0.0;
      s.stale = stale;
      s.iterations_done = result.iterations;
      return s;
    });
  };

  // Prime: one E-step in view 1 to produce the first responsibilities.
  // On resume this replays the E-step the interrupted run took at the end
  // of its last completed round — bit-identical, since it is a pure
  // function of the restored view-1 model.
  Matrix resp1 = ComputeResponsibilities(m1, view1);

  for (size_t iter = start_iter; iter < options.max_iters; ++iter) {
    if (guard.Cancelled()) {
      (void)snapshot(iter, /*flush=*/true);
      return guard.CancelledStatus();
    }
    if (guard.ShouldStop(iter)) break;
    MC_METRIC_COUNT("multiview.co_em.iterations", 1);
    MULTICLUST_TRACE_SPAN("multiview.co_em.round");
    // View 2: M-step from view-1 responsibilities, then E-step.
    MC_RETURN_IF_ERROR(MStepFromResponsibilities(view2, resp1,
                                                 options.variance_floor, &m2));
    Matrix resp2 = ComputeResponsibilities(m2, view2);
    // View 1: M-step from view-2 responsibilities, then E-step.
    MC_RETURN_IF_ERROR(MStepFromResponsibilities(view1, resp2,
                                                 options.variance_floor, &m1));
    resp1 = ComputeResponsibilities(m1, view1);
    result.iterations = iter + 1;

    double ll =
        m1.TotalLogLikelihood(view1) + m2.TotalLogLikelihood(view2);
    if (MC_FAULT_FIRES("co-em", FaultKind::kInjectNaN, iter)) {
      ll = std::numeric_limits<double>::quiet_NaN();
    }
    if (MC_FAULT_FIRES("co-em", FaultKind::kAllocFail, iter)) {
      return Status::ComputationError(
          "co-EM: injected allocation failure growing the responsibility "
          "matrices at iteration " + std::to_string(iter));
    }
    // -inf can legitimately appear on the first rounds (underflow of a far
    // component); only NaN marks a genuinely poisoned state.
    if (std::isnan(ll)) {
      return Status::ComputationError(
          "co-EM: non-finite joint log-likelihood at iteration " +
          std::to_string(iter));
    }
    if (recorder.enabled()) {
      const double delta =
          std::isfinite(best_ll) && std::isfinite(ll) ? ll - best_ll : 0.0;
      recorder.Record(0, iter, ll, delta, 0);
    }
    if (ll > best_ll + 1e-6 * (std::fabs(best_ll) + 1.0)) {
      best_ll = ll;
      stale = 0;
    } else {
      ++stale;
      if (iter + 1 >= kMinIters && stale >= options.patience &&
          !MC_FAULT_FIRES("co-em", FaultKind::kForceNonConvergence, iter)) {
        result.converged = true;
        break;
      }
    }
    // Persistence point: round complete, models and staleness counters
    // consistent. Skipped on the convergence break above — there is
    // nothing left to resume into.
    MC_RETURN_IF_ERROR(snapshot(iter + 1, /*flush=*/false));
  }

  recorder.Finish("co-em", result.iterations, result.converged);
  result.model_view1 = m1;
  result.model_view2 = m2;
  result.labels_view1 = m1.HardAssign(view1);
  result.labels_view2 = m2.HardAssign(view2);
  result.log_likelihood_view1 = m1.TotalLogLikelihood(view1);
  result.log_likelihood_view2 = m2.TotalLogLikelihood(view2);
  MC_ASSIGN_OR_RETURN(result.agreement,
                      LabelAgreement(result.labels_view1,
                                     result.labels_view2));

  // Consensus: average the per-view responsibilities.
  const Matrix resp2 = ComputeResponsibilities(m2, view2);
  Clustering consensus;
  consensus.labels.assign(n, -1);
  consensus.algorithm = "co-em";
  for (size_t i = 0; i < n; ++i) {
    double best = -1.0;
    for (size_t c = 0; c < options.k; ++c) {
      const double p = 0.5 * (resp1.at(i, c) + resp2.at(i, c));
      if (p > best) {
        best = p;
        consensus.labels[i] = static_cast<int>(c);
      }
    }
  }
  consensus.quality =
      result.log_likelihood_view1 + result.log_likelihood_view2;
  result.consensus = std::move(consensus);
  return result;
}

}  // namespace multiclust
