#ifndef MULTICLUST_SERVE_QUEUE_H_
#define MULTICLUST_SERVE_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/runguard.h"
#include "serve/protocol.h"

namespace multiclust {
namespace serve {

/// Lifecycle of one job inside the daemon. Ledger statuses map 1:1 where
/// one exists (queue.h states are in-memory; runledger.h records are the
/// durable trail).
enum class JobState {
  kQueued,     ///< accepted, waiting for a worker
  kRunning,    ///< a worker is executing it
  kDone,       ///< finished ok; report on disk
  kError,      ///< finished with an error
  kCancelled,  ///< cancelled while running (client cancel / watchdog)
  kEvicted,    ///< dropped while still queued (cancel or queue TTL)
};

const char* JobStateName(JobState state);
bool IsTerminalJobState(JobState state);

/// One job's full in-memory record, shared between the acceptor, the
/// workers, the watchdog and status queries. `JobQueue`'s mutex guards
/// every mutable member; the immutable ones (id, tenant, spec) are safe to
/// read without it.
struct Job {
  std::string id;
  std::string tenant;
  JobSpec spec;
  bool resume = false;  ///< re-enqueued by the recovery scan or a fault resume

  JobState state = JobState::kQueued;
  /// Durability latch: the daemon admits a job BEFORE writing its spool
  /// records (admission must stay cheap under overload), so workers must
  /// not start it until those records are durable — Take() skips
  /// unpublished jobs. Defaults to true for direct queue users with no
  /// durability layer; the daemon flips it to false before Offer and back
  /// via MarkPublished once the request file and ledger line are fsynced.
  bool published = true;
  CancelToken cancel;
  /// Wall-clock instants for the watchdog (queue TTL, deadline + grace).
  std::chrono::steady_clock::time_point enqueued_at;
  std::chrono::steady_clock::time_point started_at;
  /// Set with the terminal state: the run's outcome / rejection cause.
  std::string error;
  /// Why a cancellation happened ("client", "watchdog", "drain", empty
  /// otherwise).
  std::string cancel_cause;
  std::string report_path;  ///< written by the worker on success
  double objective = 0.0;
  bool degraded = false;
  uint64_t fingerprint = 0;
  /// In-daemon suspension count (kAborted outcomes re-enqueued with
  /// resume=true); bounded so an unlimited crash fault cannot loop a job
  /// forever.
  size_t resumes = 0;
};

/// Result fields a worker publishes with the terminal transition. Passed
/// through JobQueue::Finish so readers (status/result handlers) only ever
/// see them under the queue mutex — never a torn concurrent write.
struct JobResult {
  std::string error;
  std::string report_path;
  double objective = 0.0;
  bool degraded = false;
  uint64_t fingerprint = 0;
};

/// Mutex-consistent snapshot of one job for the status/result/watch
/// handlers.
struct JobInfo {
  bool found = false;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string error;
  std::string cancel_cause;
  std::string report_path;
  double objective = 0.0;
  bool degraded = false;
  uint64_t fingerprint = 0;
  bool resume = false;
};

/// Admission policy: the hard bounds that keep an overloaded daemon
/// shedding load deterministically instead of growing without bound.
struct QuotaPolicy {
  /// Jobs waiting for a worker, across all tenants. The queue NEVER holds
  /// more than this — an offer against a full queue is rejected, not
  /// blocked, so accepted memory stays bounded under any submit rate.
  size_t max_queue_depth = 16;
  /// Per-tenant cap on jobs that are queued or running. 0 = unlimited.
  size_t max_active_per_tenant = 8;
  /// Per-tenant cap on concurrently *running* jobs; enforced at dispatch
  /// (a worker skips over a tenant at its cap and takes the next eligible
  /// job). 0 = unlimited.
  size_t max_running_per_tenant = 2;
  /// Base unit of the deterministic retry-after hint: the hint for a
  /// rejected submit is retry_after_base_ms * (1 + jobs queued+running at
  /// rejection time) — a pure function of queue state, so identical
  /// overload states produce identical hints.
  double retry_after_base_ms = 250.0;
  /// Evict jobs still queued after this long (watchdog-driven); 0 = never.
  double queue_ttl_ms = 0.0;
};

/// The verdict on one submit. Rejections carry a stable machine-readable
/// reason ("queue_full", "tenant_quota") and the deterministic
/// retry-after hint.
struct AdmissionDecision {
  bool admitted = false;
  std::string reason;
  double retry_after_ms = 0.0;
};

/// Aggregate counters for the `stats` op and the soak assertions.
struct QueueStats {
  size_t queued = 0;
  size_t running = 0;
  size_t accepted_total = 0;
  size_t rejected_total = 0;
  size_t evicted_total = 0;
  size_t done_total = 0;
  size_t error_total = 0;
  size_t cancelled_total = 0;
  /// High-water mark of `queued` — the soak's "the bound really held"
  /// witness: never exceeds QuotaPolicy::max_queue_depth through Offer
  /// (only EnqueueRecovered may transiently push past it).
  size_t max_queued_seen = 0;
};

/// Bounded multi-tenant job queue: admission control at Offer, per-tenant
/// concurrency caps at Take, cancellation/eviction in between. All methods
/// are thread-safe; Take blocks until a job is eligible or Close.
class JobQueue {
 public:
  explicit JobQueue(const QuotaPolicy& policy) : policy_(policy) {}

  const QuotaPolicy& policy() const { return policy_; }

  /// Admission check + enqueue. The decision is deterministic in the
  /// queue's state: a full queue rejects with "queue_full", a tenant at
  /// its active cap rejects with "tenant_quota", anything else is
  /// admitted. Rejected jobs are NOT registered — rejection is the cheap
  /// shedding path and leaves no in-memory residue, so sustained overload
  /// cannot grow the process.
  AdmissionDecision Offer(const std::shared_ptr<Job>& job);

  /// Blocks for the next runnable job (FIFO order, skipping unpublished
  /// jobs and tenants at their running cap), marks it kRunning and returns
  /// it. Returns null after Close() once no eligible job remains.
  std::shared_ptr<Job> Take();

  /// Flips the durability latch (see Job::published) and wakes workers.
  void MarkPublished(const std::shared_ptr<Job>& job);

  /// Worker hand-back: transition a running job to its terminal state and
  /// publish its result fields under the queue mutex.
  void Finish(const std::shared_ptr<Job>& job, JobState terminal,
              const JobResult& result);

  /// Fault-resume hand-back of a running job whose run aborted at a
  /// persistence point: publishes the run's fingerprint and one more
  /// resume (resume=true) under the queue mutex. The caller ledgers the
  /// job, then re-enqueues it with EnqueueRecovered.
  void MarkResumed(const std::shared_ptr<Job>& job, uint64_t fingerprint);

  /// Client/watchdog cancel. A queued job is evicted immediately; a
  /// running job gets its CancelToken tripped and `cause` recorded (the
  /// worker finishes it as kCancelled); a terminal job is left untouched.
  /// Returns false for an unknown id; `*state_after` (optional) receives
  /// the job's state after the call, and `*evicted_now` (optional) is true
  /// only when THIS call performed a queued→evicted transition (so the
  /// caller ledgers the eviction exactly once across repeated cancels).
  bool Cancel(const std::string& job_id, const std::string& cause,
              JobState* state_after, bool* evicted_now = nullptr);

  /// Watchdog sweep: trips the cancel token of running jobs past
  /// spec.deadline_ms + grace, and evicts jobs queued longer than the
  /// policy's TTL. Returns the ids it cancelled (for ledger/metrics);
  /// evicted jobs are appended to `evicted`.
  std::vector<std::string> Sweep(double grace_ms,
                                 std::vector<std::shared_ptr<Job>>* evicted);

  /// Registry lookup (includes terminal jobs until the daemon is torn
  /// down). Null when unknown.
  std::shared_ptr<Job> Find(const std::string& job_id) const;

  /// Mutex-consistent copy of a job's queryable fields (found=false when
  /// unknown).
  JobInfo Info(const std::string& job_id) const;

  /// Registers a terminal job loaded by the recovery scan (so `status` /
  /// `result` keep answering for jobs finished before a restart).
  void RegisterRecovered(const std::shared_ptr<Job>& job);

  /// Enqueues a non-terminal job from the recovery scan, bypassing
  /// admission control: it was accepted before the restart, and rejecting
  /// it now would lose an accepted job — the one thing the daemon promises
  /// never happens. May push the queue past max_queue_depth transiently;
  /// new submits still see a full queue and shed.
  void EnqueueRecovered(const std::shared_ptr<Job>& job);

  QueueStats stats() const;

  /// Wakes all Take() waiters; subsequent Takes return null once the
  /// queue is empty. Idempotent.
  void Close();

  /// Trips every queued and running job's cancel token (drain path: the
  /// running jobs flush checkpoints and come back as kCancelled, which the
  /// daemon deliberately does NOT ledger as terminal — the queued ledger
  /// state stands and recovery resumes them).
  void CancelAll();

 private:
  /// Running jobs of `tenant` (caller holds mu_).
  size_t RunningOf(const std::string& tenant) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  QuotaPolicy policy_;
  bool closed_ = false;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  QueueStats stats_;
};

}  // namespace serve
}  // namespace multiclust

#endif  // MULTICLUST_SERVE_QUEUE_H_
