#ifndef MULTICLUST_SERVE_DAEMON_H_
#define MULTICLUST_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/runguard.h"
#include "common/status.h"
#include "serve/jobrunner.h"
#include "serve/progress.h"
#include "serve/protocol.h"
#include "serve/queue.h"

namespace multiclust {
namespace serve {

struct DaemonOptions {
  /// Unix-domain stream socket the daemon listens on. Keep it short:
  /// sun_path caps at ~107 bytes.
  std::string socket_path;
  /// Spool root. Layout: <root>/runs.jsonl (the run ledger),
  /// <root>/jobs/<id>/{request.json, ckpt/, report.json, progress.ndjson}.
  std::string root;
  /// Worker threads executing jobs. Zero is honoured: admission-only
  /// mode where accepted jobs stay queued (used by tests to make
  /// admission decisions a pure function of the submit order).
  size_t workers = 2;
  QuotaPolicy quota;
  /// In-daemon transient retries (kComputationError) per job, slept with
  /// deterministic backoff. Defaults to none.
  RetryPolicy job_retry;
  double watchdog_period_ms = 50.0;
  /// Extra wall-clock a running job may overstay its own deadline before
  /// the watchdog cancels it (a wedged loop that stopped honouring its
  /// cooperative budget).
  double watchdog_grace_ms = 250.0;
  size_t dataset_cache_capacity = 8;
  /// Cap on in-daemon kAborted suspensions per job (an armed kCrash fault
  /// re-enqueues the job with resume=true; the cap stops an unlimited
  /// fault from looping a job forever).
  size_t max_resumes = 8;
};

/// The discovery daemon: accepts `multiclust.job_request` lines over a
/// unix socket, executes jobs through the shared JobRunner on a bounded
/// multi-tenant queue, and survives any kill point without losing an
/// accepted job.
///
/// Durability contract (the zero-lost-jobs invariant): a submit is
/// acknowledged only after (1) the job's request.json is atomically
/// published (fsync file + directory) and (2) its "queued" ledger line is
/// fsynced. SIGKILL at any instant therefore leaves every acknowledged
/// job either terminal in the ledger or recoverable: the next Start()
/// folds the ledger per job, re-enqueues every non-terminal one from its
/// request.json with resume=true (checkpoint restore makes the rerun
/// bit-identical), and appends a "resumed" line so repeated kills keep
/// converging.
///
/// Drain contract (SIGTERM / the drain op): stop accepting, cancel
/// running jobs (they flush a final checkpoint and are deliberately NOT
/// ledgered terminal — their durable "queued" state stands), join
/// everything, exit. A drained daemon restarts exactly like a killed one,
/// minus the lost wall-clock.
class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Recovery scan, socket bind/listen, thread spawn. Error when the
  /// socket cannot be bound or the spool is unusable.
  Status Start();

  /// Blocks until a drain completes (RequestDrain, the drain op, or
  /// Shutdown from another thread), then joins everything.
  void Wait();

  /// Async-signal-safe drain trigger (one write(2) to a self-pipe): safe
  /// to call from a SIGTERM handler.
  void RequestDrain();

  /// Synchronous drain + join. Idempotent; called by Wait().
  void Shutdown();

  const DaemonOptions& options() const { return options_; }
  QueueStats queue_stats() const { return queue_.stats(); }
  std::string ledger_path() const { return options_.root + "/runs.jsonl"; }
  std::string JobDir(const std::string& job_id) const {
    return options_.root + "/jobs/" + job_id;
  }
  /// Jobs re-enqueued by the last Start()'s recovery scan.
  size_t recovered_jobs() const { return recovered_; }
  const DatasetCache& dataset_cache() const { return cache_; }

 private:
  void AcceptLoop();
  /// Joins the connection threads that have finished, so a closed
  /// connection's stack is freed at the next accept-loop turn instead of
  /// at shutdown.
  void ReapConnections();
  void WorkerLoop();
  void WatchdogLoop();
  void HandleConnection(int fd);
  /// Handles one request line; every response line is written to `fd`.
  void HandleRequest(const std::string& line, int fd);
  void HandleSubmit(const Request& request, int fd);
  void HandleStatus(const Request& request, int fd);
  void HandleResult(const Request& request, int fd);
  void HandleCancel(const Request& request, int fd);
  void HandleWatch(const Request& request, int fd);
  void HandleStats(int fd);

  /// Makes an accepted job durable: spool dir + request.json (atomic,
  /// fsynced) + "queued" ledger line (fsynced). Only after this returns OK
  /// is the accept acknowledged.
  Status PersistAccepted(const std::shared_ptr<Job>& job);
  /// Appends one ledger line for `job` with the given serve-lifecycle
  /// status; best-effort on terminal paths (an append failure is logged,
  /// not fatal — the job still finished).
  Status AppendLedger(const std::shared_ptr<Job>& job,
                      const std::string& status, int exit_code,
                      const std::string& note);
  /// Reads the ledger, registers terminal jobs and re-enqueues
  /// non-terminal ones (resume=true).
  Status RecoverJobs();
  /// Executes one job end to end: progress stream, JobRunner, report
  /// publication, terminal ledger line, queue hand-back.
  void ExecuteJob(const std::shared_ptr<Job>& job);

  DaemonOptions options_;
  JobQueue queue_;
  DatasetCache cache_;
  JobRunner runner_;
  JobProgressMux mux_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<bool> started_{false};
  bool shut_down_ = false;  ///< guarded by lifecycle_mu_
  size_t recovered_ = 0;

  std::vector<std::thread> workers_;
  std::thread acceptor_;
  std::thread watchdog_;
  std::mutex conn_mu_;
  /// Connection threads not yet joined, and the ids of those that have
  /// returned from HandleConnection (both guarded by conn_mu_).
  std::unordered_map<std::thread::id, std::thread> connections_;
  std::vector<std::thread::id> finished_connections_;
  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
};

}  // namespace serve
}  // namespace multiclust

#endif  // MULTICLUST_SERVE_DAEMON_H_
