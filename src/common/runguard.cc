#include "common/runguard.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/blackbox.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "linalg/matrix.h"

namespace multiclust {

const char* StopReasonToString(StopReason reason) {
  switch (reason) {
    case StopReason::kConverged:
      return "converged";
    case StopReason::kMaxIterations:
      return "max-iterations";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string ConvergenceTrace::ToString() const {
  if (points.empty()) return "(no convergence trace)";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu points, winning restart %zu, final objective %.6g "
                "(delta %.3g)",
                points.size(), winning_restart, points.back().objective,
                points.back().delta);
  std::string out = buf;
  size_t reseeds = 0;
  for (const ConvergencePoint& p : points) reseeds += p.reseeds;
  if (reseeds > 0) out += ", " + std::to_string(reseeds) + " reseeds";
  return out;
}

std::string RunDiagnostics::ToString() const {
  std::string out = algorithm.empty() ? "<unknown>" : algorithm;
  out += ": " + std::to_string(iterations) + " iters, ";
  out += converged ? "converged" : "not converged";
  out += " (";
  out += StopReasonToString(stop_reason);
  out += ")";
  if (retries > 0) out += ", " + std::to_string(retries) + " retries";
  if (elapsed_ms > 0.0) {
    out += ", " + std::to_string(elapsed_ms) + " ms";
  }
  if (!trace.empty()) out += ", trace: " + trace.ToString();
  if (!warnings.empty()) {
    out += ", " + std::to_string(warnings.size()) + " warning" +
           (warnings.size() == 1 ? "" : "s");
  }
  if (!note.empty()) out += " — " + note;
  return out;
}

void AddWarning(RunDiagnostics* diagnostics, const char* algorithm,
                const std::string& message) {
  if (diagnostics == nullptr) return;
  diagnostics->warnings.push_back(std::string(algorithm) + ": " + message);
}

void ConvergenceRecorder::Record(size_t restart, size_t iteration,
                                 double objective, double delta,
                                 size_t reseeds) {
  if (diag_ == nullptr) return;
  ConvergencePoint p;
  p.restart = restart;
  p.iteration = iteration;
  p.objective = objective;
  p.delta = delta;
  p.reseeds = reseeds;
  p.budget_remaining_ms = guard_ != nullptr ? guard_->RemainingMs() : -1.0;
  diag_->trace.points.push_back(p);
  if (telemetry::ProgressEnabled()) {
    telemetry::ProgressEvent event;
    event.stage = guard_ != nullptr ? guard_->site() : "run";
    event.phase = "iteration";
    event.restart = static_cast<int64_t>(restart);
    event.iteration = static_cast<int64_t>(iteration);
    event.objective = objective;
    event.delta = delta;
    if (p.budget_remaining_ms >= 0.0) {
      event.budget_remaining_ms = p.budget_remaining_ms;
    }
    if (guard_ != nullptr && expected_iterations_ > iteration + 1) {
      // ETA from iteration cadence: mean time per recorded point so far,
      // extrapolated over this restart's remaining iterations.
      const double cadence = guard_->ElapsedMs() /
                             static_cast<double>(diag_->trace.points.size());
      event.eta_ms =
          cadence * static_cast<double>(expected_iterations_ - iteration - 1);
    }
    telemetry::EmitProgress(event);
  }
}

void ConvergenceRecorder::Finish(const char* algorithm, size_t iterations,
                                 bool converged) {
  if (diag_ == nullptr) return;
  diag_->algorithm = algorithm;
  diag_->iterations = iterations;
  diag_->converged = converged;
  if (converged) {
    diag_->stop_reason = StopReason::kConverged;
  } else if (guard_ != nullptr && guard_->reason() != StopReason::kConverged) {
    diag_->stop_reason = guard_->reason();
  } else {
    diag_->stop_reason = StopReason::kMaxIterations;
  }
  if (guard_ != nullptr) diag_->elapsed_ms = guard_->ElapsedMs();
  diag_->resource = resource_scope_.Snapshot();
  blackbox::Record(blackbox::EventType::kStatus,
                   StopReasonToString(diag_->stop_reason), iterations);
  telemetry::EmitStage(algorithm, "end");
}

BudgetTracker::BudgetTracker(const RunBudget& budget, const char* site)
    : budget_(budget),
      site_(site),
      start_(std::chrono::steady_clock::now()) {}

double BudgetTracker::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

bool BudgetTracker::ShouldStop(size_t iteration) {
  // Every algorithm checks its budget once per outer iteration, which
  // makes this the one place the flight recorder learns where a run is.
  blackbox::Record(blackbox::EventType::kIteration, site_, iteration);
  if (MC_FAULT_FIRES(site_, FaultKind::kRaiseSegv, iteration)) {
    // Crash-forensics fault: a REAL segfault mid-iteration, so the whole
    // handler → crash-report → ledger → resume chain is exercised against
    // genuine signal delivery, not a simulation.
    std::raise(SIGSEGV);
  }
  if (budget_.max_iterations != 0 && iteration >= budget_.max_iterations) {
    reason_ = StopReason::kMaxIterations;
    blackbox::Record(blackbox::EventType::kStatus, "max-iterations",
                     iteration);
    return true;
  }
  if (MC_FAULT_FIRES(site_, FaultKind::kExpireDeadline, iteration)) {
    reason_ = StopReason::kDeadline;
    blackbox::Record(blackbox::EventType::kStatus, "deadline", iteration);
    return true;
  }
  if (budget_.deadline_ms > 0.0 && ElapsedMs() >= budget_.deadline_ms) {
    reason_ = StopReason::kDeadline;
    blackbox::Record(blackbox::EventType::kStatus, "deadline", iteration);
    return true;
  }
  return false;
}

bool BudgetTracker::DeadlineExpired() {
  if (reason_ == StopReason::kDeadline) return true;
  if (budget_.deadline_ms > 0.0 && ElapsedMs() >= budget_.deadline_ms) {
    reason_ = StopReason::kDeadline;
    return true;
  }
  return false;
}

double BudgetTracker::RemainingMs() const {
  if (budget_.deadline_ms <= 0.0) return -1.0;
  return std::max(0.0, budget_.deadline_ms - ElapsedMs());
}

Status BudgetTracker::CancelledStatus() const {
  return Status::Cancelled(std::string(site_) + ": cancelled by caller");
}

RunBudget BudgetTracker::Remaining() const {
  RunBudget b = budget_;
  // Never forward the checkpointer implicitly: a sub-algorithm writing
  // under the parent's slot would interleave incompatible snapshots.
  // Composites that want nested checkpoints re-attach it explicitly.
  b.checkpoint = nullptr;
  if (b.deadline_ms > 0.0) {
    const double left = b.deadline_ms - ElapsedMs();
    // Keep the deadline active (0 would mean "none"): an exhausted budget
    // becomes a minimal one that trips at the sub-call's first check.
    b.deadline_ms = left > 1e-3 ? left : 1e-3;
  }
  return b;
}

namespace {

Status NonFiniteError(const char* context, size_t row, size_t col,
                      double value) {
  return Status::InvalidArgument(
      std::string(context) + ": non-finite value (" +
      (std::isnan(value) ? "NaN" : "Inf") + ") at row " +
      std::to_string(row) + ", column " + std::to_string(col));
}

}  // namespace

Status ValidateMatrix(const char* context, const Matrix& m) {
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.row_data(i);
    for (size_t j = 0; j < m.cols(); ++j) {
      if (!std::isfinite(row[j])) return NonFiniteError(context, i, j, row[j]);
    }
  }
  return Status::OK();
}

Status ValidateNonEmptyMatrix(const char* context, const Matrix& m) {
  if (m.rows() == 0 || m.cols() == 0) {
    return Status::InvalidArgument(std::string(context) + ": empty data");
  }
  return ValidateMatrix(context, m);
}

uint64_t RetrySeed(uint64_t base_seed, size_t attempt) {
  if (attempt == 0) return base_seed;
  return SplitMix64(base_seed +
                    0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(attempt));
}

double RetryPolicy::BackoffDelayMs(size_t attempt) const {
  if (attempt == 0 || base_delay_ms <= 0.0) return 0.0;
  // Exponential growth without overflow: once the doubling passes the cap
  // the capped value is exact, so stop multiplying (2^attempt overflows a
  // double's exponent long before attempt overflows size_t).
  double d = base_delay_ms;
  for (size_t i = 1; i < attempt && d < max_delay_ms; ++i) d *= 2.0;
  if (d > max_delay_ms) d = max_delay_ms;
  const double j = jitter < 0.0 ? 0.0 : (jitter > 1.0 ? 1.0 : jitter);
  if (j == 0.0) return d;
  // u ∈ [0, 1): the top 53 bits of a SplitMix64 draw seeded per attempt,
  // so the whole schedule — not just each delay — is reproducible and
  // attempt k's jitter never depends on whether attempts < k were played.
  const uint64_t bits = SplitMix64(
      jitter_seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(attempt));
  const double u =
      static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
  return d * (1.0 - j) + u * d * j;
}

bool SleepWithCancel(double delay_ms, const CancelToken* cancel) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(delay_ms));
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancel != nullptr && cancel->cancelled()) return false;
    const auto left = deadline - std::chrono::steady_clock::now();
    const auto chunk = std::chrono::milliseconds(2);
    std::this_thread::sleep_for(left < chunk ? left : chunk);
  }
  return cancel == nullptr || !cancel->cancelled();
}

}  // namespace multiclust
