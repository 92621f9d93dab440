#ifndef MULTICLUST_SERVE_PROGRESS_H_
#define MULTICLUST_SERVE_PROGRESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/telemetry.h"

namespace multiclust {
namespace serve {

/// Demultiplexes the process-wide progress stream onto per-job NDJSON
/// files. The pipeline emits events through one global sink with no job
/// identity; in a daemon several jobs run concurrently, so the mux keys
/// attribution off the emitting thread: a worker calls BeginJob before
/// running a job and FinishJob after, and every event the pipeline emits
/// on that thread in between is tagged with the job id (the `"job"`
/// member of telemetry::ProgressEventJson) and appended to the job's
/// stream with per-job seq / elapsed_ms stamps (each job's stream
/// independently satisfies the schema's monotonicity contract).
///
/// FinishJob always writes the stream's single terminal event itself —
/// the one line a tailing consumer needs — so every stream ends
/// well-formed, including a job that failed before the pipeline emitted
/// anything.
class JobProgressMux : public telemetry::ProgressSink {
 public:
  JobProgressMux() = default;
  ~JobProgressMux() override;

  /// Opens (truncates) `path` as the calling thread's current job stream.
  /// A resumed job restarts its stream from scratch — the stream is the
  /// live run's, not an append-only history (that is the ledger's role).
  Status BeginJob(const std::string& job_id, const std::string& path);

  /// Writes the terminal event (`stage` "run", `phase` per the schema:
  /// "complete" or "error"), closes the stream and unregisters the
  /// calling thread. No-op when BeginJob did not run on this thread.
  void FinishJob(const std::string& phase);

  /// Closes the stream WITHOUT a terminal event and unregisters the
  /// calling thread: the suspension paths (drain, in-daemon resume after
  /// a simulated crash) — the stream will be rewritten from scratch when
  /// the job runs again, so a terminal line now would be a lie.
  void AbandonJob();

  /// ProgressSink hook: tags and appends, or drops the event when the
  /// emitting thread has no registered job (e.g. daemon-side bookkeeping
  /// outside any job).
  void OnEvent(const telemetry::ProgressEvent& event) override;

 private:
  struct Channel {
    std::string job_id;
    std::FILE* out = nullptr;
    uint64_t seq = 0;
    std::chrono::steady_clock::time_point start;
  };

  double ElapsedMs(const Channel& channel) const;

  /// Guards channels_ (Begin/Finish run on many worker threads). A
  /// channel's stream state (out, seq) is only ever touched by its owning
  /// thread: OnEvent fires synchronously on the thread running the job.
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Channel>> channels_;
};

}  // namespace serve
}  // namespace multiclust

#endif  // MULTICLUST_SERVE_PROGRESS_H_
