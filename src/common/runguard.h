#ifndef MULTICLUST_COMMON_RUNGUARD_H_
#define MULTICLUST_COMMON_RUNGUARD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/profile.h"
#include "common/result.h"
#include "common/status.h"

namespace multiclust {

class Checkpointer;
class Matrix;

/// Cooperative cancellation flag shared between a caller (e.g. a request
/// handler whose client disconnected) and a running algorithm. Algorithms
/// poll the token once per outer iteration and return
/// StatusCode::kCancelled when it is set. Thread-safe.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource limits for one algorithm invocation. A default-constructed
/// budget is unlimited, so existing call sites behave exactly as before.
///
/// Semantics, shared by every iterative algorithm:
///  - `deadline_ms` caps the wall-clock time of the whole call (all
///    restarts together). When it expires the algorithm stops at the next
///    outer-iteration check and returns its best result so far with
///    `converged = false` — a partial result, not an error.
///  - `max_iterations` caps the *outer* iterations of each optimisation
///    loop (per restart), on top of the algorithm's own `max_iters`.
///  - `cancel` aborts the run with StatusCode::kCancelled (no result).
///  - `checkpoint` arms crash-consistent snapshots (common/checkpoint.h):
///    the algorithm restores from the newest valid checkpoint at entry and
///    persists at policy-selected outer-iteration boundaries. The
///    checkpointer is deliberately NOT forwarded by
///    `BudgetTracker::Remaining()` — nested algorithms sharing the parent's
///    slot would corrupt each other's files — composites that want nested
///    checkpoints re-attach it explicitly under their own naming.
struct RunBudget {
  double deadline_ms = 0.0;   ///< wall-clock limit; 0 = none
  size_t max_iterations = 0;  ///< outer-iteration cap; 0 = none
  const CancelToken* cancel = nullptr;
  Checkpointer* checkpoint = nullptr;  ///< snapshot channel; null = disarmed

  bool unlimited() const {
    return deadline_ms <= 0.0 && max_iterations == 0 && cancel == nullptr &&
           checkpoint == nullptr;
  }

  static RunBudget Unlimited() { return {}; }
  static RunBudget Deadline(double ms) {
    RunBudget b;
    b.deadline_ms = ms;
    return b;
  }
  static RunBudget MaxIterations(size_t n) {
    RunBudget b;
    b.max_iterations = n;
    return b;
  }
};

/// Why an iterative run stopped.
enum class StopReason {
  kConverged,      ///< the algorithm's own convergence criterion was met
  kMaxIterations,  ///< an iteration cap (algorithm's or budget's) hit
  kDeadline,       ///< the wall-clock deadline expired (or was injected)
  kCancelled,      ///< the cancel token was set
};

const char* StopReasonToString(StopReason reason);

/// One sample of an iterative algorithm's convergence telemetry: the state
/// at the end of one outer iteration of one restart.
struct ConvergencePoint {
  size_t restart = 0;    ///< 0-based restart that produced this point
  size_t iteration = 0;  ///< 0-based outer iteration within the restart
  /// The algorithm's own per-iteration objective (SSE, log-likelihood,
  /// combined objective G, merge distance, projected energy, ...).
  double objective = 0.0;
  /// Per-iteration progress measure: max centre shift for k-means,
  /// absolute objective change for the others.
  double delta = 0.0;
  /// Degeneracy recoveries this iteration (empty-cluster reseeds, dead
  /// mixture components, dropped empty groups).
  size_t reseeds = 0;
  /// Wall-clock budget left when the point was recorded; -1 when the run
  /// has no deadline. Wall-clock-dependent, so excluded from determinism
  /// comparisons — every other field is bit-reproducible for a fixed seed.
  double budget_remaining_ms = -1.0;
};

/// Per-outer-iteration convergence telemetry of one algorithm invocation,
/// across all restarts. Filled whenever the caller hands the algorithm a
/// RunDiagnostics sink (`options.diagnostics`); recording is skipped
/// entirely — including any objective evaluation done only for telemetry —
/// when no sink is attached, so the hot loops pay nothing by default.
struct ConvergenceTrace {
  std::vector<ConvergencePoint> points;
  /// Restart whose result the algorithm returned.
  size_t winning_restart = 0;

  bool empty() const { return points.empty(); }
  std::string ToString() const;
};

/// Per-run execution diagnostics: what happened, how long it took, and how
/// it recovered. Collected per solution / per strategy attempt by the
/// discovery pipeline (`DiscoveryReport`), or directly by handing an
/// algorithm `options.diagnostics`.
struct RunDiagnostics {
  std::string algorithm;
  size_t iterations = 0;
  bool converged = false;
  StopReason stop_reason = StopReason::kConverged;
  size_t retries = 0;
  double elapsed_ms = 0.0;
  /// Human-readable failure/recovery explanation (empty when clean).
  std::string note;
  /// Per-outer-iteration convergence telemetry (see ConvergenceTrace).
  ConvergenceTrace trace;
  /// Non-fatal events, each prefixed with the algorithm that produced it
  /// ("kmeans: ...") so composite runs (spectral→kmeans, mSC→views,
  /// meta→bases) stay attributable. Append via AddWarning.
  std::vector<std::string> warnings;
  /// What the run cost (filled by ConvergenceRecorder::Finish). Wall-clock
  /// dependent, so excluded from determinism comparisons like
  /// `budget_remaining_ms`.
  telemetry::ResourceProfile resource;

  std::string ToString() const;

  /// Checkpoint schema (see common/checkpoint.h): the pipeline's attempt
  /// ledger. `resource` is wall-clock dependent and not checkpointed.
  template <class Ar>
  void Fields(Ar& ar) {
    ar("algorithm", algorithm);
    ar("iterations", iterations);
    ar("converged", converged);
    ar("stop_reason", stop_reason);
    ar("retries", retries);
    ar("elapsed_ms", elapsed_ms);
    ar("note", note);
    ar("warnings", warnings);
    ar("trace", trace);
  }
};

/// Appends "<algorithm>: <message>" to diagnostics->warnings (no-op on a
/// null sink). The single entry point for warning accumulation, so inner
/// algorithms of a composite are always named.
void AddWarning(RunDiagnostics* diagnostics, const char* algorithm,
                const std::string& message);

/// Budget enforcement for one algorithm invocation: captures the start
/// time at construction and answers per-iteration "should I stop?" /
/// "was I cancelled?" queries. Constructed once at algorithm entry so all
/// restarts share one wall clock. `site` names the algorithm for the
/// fault injector (kExpireDeadline faults target it).
class BudgetTracker {
 public:
  BudgetTracker(const RunBudget& budget, const char* site);

  /// True when the loop must stop before running 0-based `iteration`:
  /// the budget's iteration cap is reached, or the deadline (real or
  /// fault-injected) has expired. Never true for an unlimited budget with
  /// no armed faults.
  bool ShouldStop(size_t iteration);

  /// True when the wall-clock deadline has expired, or ShouldStop already
  /// reported an expired (real or fault-injected) deadline (checked between
  /// restarts: started restarts finish their iteration, later ones are
  /// skipped). Does not consult the iteration cap.
  bool DeadlineExpired();

  /// True when the cancel token is set.
  bool Cancelled() const {
    return budget_.cancel != nullptr && budget_.cancel->cancelled();
  }

  /// The status an algorithm returns when Cancelled().
  Status CancelledStatus() const;

  /// Remaining budget to forward to a sub-algorithm (e.g. spectral
  /// clustering handing its leftover deadline to embedded k-means). An
  /// already-expired deadline becomes a minimal positive one so the
  /// sub-call stops at its first check.
  RunBudget Remaining() const;

  StopReason reason() const { return reason_; }
  double ElapsedMs() const;
  /// Wall-clock budget left, or -1 when no deadline is armed. Never
  /// negative with a deadline: an expired budget reports 0.
  double RemainingMs() const;
  const char* site() const { return site_; }

 private:
  RunBudget budget_;
  const char* site_;
  std::chrono::steady_clock::time_point start_;
  StopReason reason_ = StopReason::kConverged;
};

/// Fills a RunDiagnostics sink with per-iteration convergence telemetry.
/// Algorithms construct one next to their BudgetTracker and call Record
/// once per outer iteration; every call is a no-op when the caller did not
/// ask for diagnostics, so guarding telemetry-only objective computations
/// behind `enabled()` keeps the default path free of overhead.
class ConvergenceRecorder {
 public:
  ConvergenceRecorder(RunDiagnostics* diagnostics, const BudgetTracker* guard)
      : diag_(diagnostics), guard_(guard) {}

  /// True when a sink is attached (record-only work may run).
  bool enabled() const { return diag_ != nullptr; }

  /// Appends one ConvergencePoint (budget_remaining_ms is read from the
  /// guard at call time) and, when a telemetry::ProgressSink is installed,
  /// streams the point as a `multiclust.progress` "iteration" event with
  /// an ETA extrapolated from the iteration cadence so far.
  void Record(size_t restart, size_t iteration, double objective,
              double delta, size_t reseeds);

  /// Tells the progress stream how many outer iterations one restart runs
  /// at most (the algorithm's max_iters after budget capping); 0 disables
  /// the ETA estimate. Call once at algorithm entry.
  void SetExpectedIterations(size_t iterations) {
    expected_iterations_ = iterations;
  }

  /// Notes which restart's result the algorithm returned.
  void SetWinner(size_t restart) {
    if (diag_ != nullptr) diag_->trace.winning_restart = restart;
  }

  /// Fills the scalar fields once the run is over. stop_reason is derived:
  /// converged wins, then whatever budget limit the guard tripped, then
  /// the algorithm's own iteration cap. Also snapshots the run's
  /// ResourceProfile (measured since recorder construction) and emits the
  /// stage's "end" progress event.
  void Finish(const char* algorithm, size_t iterations, bool converged);

 private:
  RunDiagnostics* diag_;
  const BudgetTracker* guard_;
  size_t expected_iterations_ = 0;
  /// Resource window of the whole invocation.
  telemetry::ResourceScope resource_scope_;
};

/// Rejects matrices containing NaN or Inf entries with
/// StatusCode::kInvalidArgument naming the first offending (row, column).
/// Called at every public `Run*` entry point so numerical poison is caught
/// at the boundary instead of surfacing as a hung loop or garbage labels.
Status ValidateMatrix(const char* context, const Matrix& m);

/// ValidateMatrix plus rejection of empty (0x0 / 0-row / 0-col) matrices.
Status ValidateNonEmptyMatrix(const char* context, const Matrix& m);

/// Deterministic retry policy: a run that fails with
/// StatusCode::kComputationError (numerical degeneracy, no convergence,
/// singular matrix) is re-run up to `max_retries` times with a seed
/// derived from the original via SplitMix64 — bit-reproducible across
/// processes and platforms. Other status codes (invalid argument,
/// cancellation, IO) are never retried.
///
/// Backoff schedule (used by the serving layer for in-daemon transient
/// retries and by discover_client's reconnect loop; RunWithRetry itself
/// never sleeps — algorithm retries are CPU-bound and immediate):
/// the delay before retry `attempt` (1-based) is
///
///   d      = min(base_delay_ms * 2^(attempt-1), max_delay_ms)
///   delay  = d * (1 - jitter) + u * d * jitter
///
/// where u ∈ [0, 1) is drawn from a private SplitMix64 stream seeded with
/// (jitter_seed, attempt). The schedule is a pure function of the policy
/// and the attempt index — two processes with equal policies compute
/// bit-identical delays — and the cap contract holds with any jitter:
/// BackoffDelayMs never exceeds max_delay_ms. base_delay_ms = 0 disables
/// delays entirely (every BackoffDelayMs is 0).
struct RetryPolicy {
  size_t max_retries = 0;
  double base_delay_ms = 0.0;     ///< first retry's nominal delay; 0 = none
  double max_delay_ms = 30000.0;  ///< exponential growth cap
  /// Fraction of the capped delay randomized per attempt, in [0, 1].
  /// 0 = fully deterministic spacing; 0.5 = "equal jitter" (half fixed,
  /// half uniform) — decorrelates reconnect storms without ever waiting
  /// longer than the cap.
  double jitter = 0.0;
  uint64_t jitter_seed = 0;  ///< SplitMix64 stream seed for the jitter draws

  bool ShouldRetry(const Status& status, size_t retries_done) const {
    return retries_done < max_retries &&
           status.code() == StatusCode::kComputationError;
  }

  /// The delay before retry `attempt` (1-based; attempt 0 — the original
  /// try — is always 0). Deterministic per (policy, attempt).
  double BackoffDelayMs(size_t attempt) const;
};

/// Stateful backoff sequencer over a RetryPolicy: NextDelayMs() returns
/// BackoffDelayMs(1), BackoffDelayMs(2), ... and Reset() rewinds to the
/// start of the schedule (the contract a reconnect loop needs: after a
/// successful connection the next failure starts over at the base delay,
/// and replays the exact same deterministic sequence).
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy) : policy_(policy) {}

  /// Delay before the next retry; advances the attempt counter.
  double NextDelayMs() { return policy_.BackoffDelayMs(++attempt_); }

  /// Rewinds to the start of the schedule.
  void Reset() { attempt_ = 0; }

  /// Retries scheduled since construction or the last Reset().
  size_t attempts() const { return attempt_; }

  /// True while another retry is allowed under the policy's max_retries.
  bool CanRetry() const { return attempt_ < policy_.max_retries; }

 private:
  RetryPolicy policy_;
  size_t attempt_ = 0;
};

/// Sleeps for `delay_ms`, waking early (returning false) when `cancel`
/// trips. Polls the token every few milliseconds so a drain or client
/// disconnect never waits out a long backoff. Returns true when the full
/// delay elapsed. A null token degrades to a plain sleep.
bool SleepWithCancel(double delay_ms, const CancelToken* cancel);

/// The seed used for retry `attempt` (1-based) of a run originally seeded
/// with `base_seed`. attempt 0 is the original seed itself.
uint64_t RetrySeed(uint64_t base_seed, size_t attempt);

/// Runs `fn(seed)` (returning Status or Result<T>), retrying per `policy`
/// with RetrySeed-derived seeds. Records the number of retries (and the
/// final error, if any) into `diagnostics` when given.
template <typename Fn>
auto RunWithRetry(const RetryPolicy& policy, uint64_t base_seed, Fn&& fn,
                  RunDiagnostics* diagnostics = nullptr)
    -> decltype(fn(base_seed)) {
  auto result = fn(base_seed);
  size_t retries = 0;
  while (!result.ok() && policy.ShouldRetry(result.status(), retries)) {
    ++retries;
    result = fn(RetrySeed(base_seed, retries));
  }
  if (diagnostics != nullptr) {
    diagnostics->retries = retries;
    if (!result.ok()) diagnostics->note = result.status().ToString();
  }
  return result;
}

}  // namespace multiclust

#endif  // MULTICLUST_COMMON_RUNGUARD_H_
