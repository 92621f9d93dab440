#ifndef MULTICLUST_COMMON_TELEMETRY_H_
#define MULTICLUST_COMMON_TELEMETRY_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

#include "common/status.h"

namespace multiclust {
namespace telemetry {

/// Schema version of the `multiclust.progress` NDJSON event stream.
inline constexpr int kProgressSchemaVersion = 1;

/// One live progress event. Events flow from `ConvergenceRecorder` (one
/// per recorded outer iteration) and from pipeline stage boundaries to the
/// installed ProgressSink while a run executes — unlike the report
/// artifact, which only exists after the run.
///
/// NaN-valued doubles and negative counters mean "not applicable" and are
/// omitted from the serialized form.
struct ProgressEvent {
  /// What is running: an algorithm site ("kmeans", "dec-kmeans", ...) or a
  /// pipeline stage ("pipeline.select_k", "pipeline.dedup", ...).
  std::string stage;
  /// Event kind within the stage: "start", "iteration", "end", or — on the
  /// terminal event of the whole run — "complete" / "error".
  std::string phase;
  int64_t restart = -1;    ///< 0-based restart; -1 = n/a
  int64_t iteration = -1;  ///< 0-based outer iteration; -1 = n/a
  /// Per-iteration objective; NaN = n/a.
  double objective = std::numeric_limits<double>::quiet_NaN();
  /// Per-iteration progress measure; NaN = n/a.
  double delta = std::numeric_limits<double>::quiet_NaN();
  /// Wall-clock budget left (BudgetTracker::RemainingMs); NaN = no deadline.
  double budget_remaining_ms = std::numeric_limits<double>::quiet_NaN();
  /// Estimated ms to stage completion, from iteration cadence; NaN = n/a.
  double eta_ms = std::numeric_limits<double>::quiet_NaN();
  /// True exactly once, on the final event of the whole run.
  bool terminal = false;
};

/// Receives progress events. Implementations must tolerate calls from
/// whatever thread runs the algorithm; the dispatcher serializes calls
/// under an internal mutex, so OnEvent itself never runs concurrently.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void OnEvent(const ProgressEvent& event) = 0;
};

/// Always true: the telemetry plane is part of every build. Kept for
/// consumers that stamp the build configuration into their output.
inline constexpr bool kTelemetryCompiledIn = true;

/// Installs `sink` (borrowed, not owned) as the process-wide progress
/// sink; nullptr uninstalls. Install before the run starts and uninstall
/// before destroying the sink.
void SetProgressSink(ProgressSink* sink);

/// True when a sink is installed — the cheap guard for any work done only
/// to build a ProgressEvent.
bool ProgressEnabled();

/// Dispatches `event` to the installed sink (no-op without one).
/// Serialized: at most one OnEvent runs at a time, so sinks need no
/// locking of their own.
void EmitProgress(const ProgressEvent& event);

/// Convenience: emit a minimal stage-boundary event (`phase` is "start",
/// "end" or "complete").
void EmitStage(const std::string& stage, const std::string& phase,
               bool terminal = false);

/// ProgressSink writing one `{"kind":"multiclust.progress",...}` JSON
/// object per line (NDJSON) to a stream. Stage-boundary and terminal
/// events are flushed immediately so a tailing consumer sees them live;
/// dense "iteration" bursts are batched and flushed at most every ~25 ms
/// (and on destruction), bounding the armed overhead to one write syscall
/// per window rather than one per iteration.
class NdjsonProgressSink : public ProgressSink {
 public:
  /// Writes to `out`; closes it on destruction when `take_ownership` (pass
  /// false for stdout/stderr).
  explicit NdjsonProgressSink(std::FILE* out, bool take_ownership = false);
  ~NdjsonProgressSink() override;

  void OnEvent(const ProgressEvent& event) override;

  /// Events written so far.
  uint64_t events_written() const { return events_written_; }

 private:
  static constexpr double kFlushIntervalMs = 25.0;

  std::FILE* out_;
  bool owned_;
  uint64_t events_written_ = 0;
  double last_flush_ms_ = -1e300;  // first event always flushes
};

/// Serializes one event to its NDJSON object form (no trailing newline).
/// `seq` and `elapsed_ms` are the stream position stamps. A non-empty
/// `job_id` adds a `"job"` member right after `schema_version`: the tag of
/// the daemon's per-job streams (serve/progress.h). The member is additive
/// (no schema_version bump; untagged readers ignore it).
std::string ProgressEventJson(const ProgressEvent& event, uint64_t seq,
                              double elapsed_ms,
                              std::string_view job_id = {});

// --- Periodic OpenMetrics export --------------------------------------------

struct MetricsExportOptions {
  std::string path;         ///< file to (re)write with OpenMetricsText()
  double period_ms = 500.0; ///< rewrite period of the background thread
};

/// Starts a background thread that rewrites `options.path` with
/// `metrics::OpenMetricsText()` every `period_ms` (write-temp-then-rename,
/// so a scraper never reads a torn file). Error when already running, the
/// path is empty, or the period is not positive.
Status StartMetricsExport(const MetricsExportOptions& options);

/// Stops the export thread and writes one final snapshot.
void StopMetricsExport();

bool MetricsExportRunning();

/// Writes one OpenMetrics snapshot of the registry to `path` right now,
/// through the shared atomic temp-write-rename writer (atomicio.h) at
/// fault site "telemetry": an injected short write or rename failure
/// surfaces as kIoError with no leaked temp file and no truncated
/// artifact. The export thread and StopMetricsExport use this same
/// writer.
Status WriteMetricsSnapshotNow(const std::string& path);

}  // namespace telemetry
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_TELEMETRY_H_
