#include "common/telemetry.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/atomicio.h"
#include "common/json.h"
#include "common/metrics.h"

namespace multiclust {
namespace telemetry {

namespace {

struct ProgressState {
  std::mutex mu;  // serializes dispatch
};

ProgressState& GetProgressState() {
  static ProgressState* state = new ProgressState();
  return *state;
}

std::atomic<ProgressSink*> g_sink{nullptr};

// Milliseconds since the process progress epoch (first call).
double NowMs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

void SetProgressSink(ProgressSink* sink) {
  // Take the dispatch lock so an in-flight OnEvent on the outgoing sink
  // finishes before SetProgressSink returns — after that the caller may
  // safely destroy it.
  ProgressState& state = GetProgressState();
  std::lock_guard<std::mutex> lock(state.mu);
  g_sink.store(sink, std::memory_order_release);
}

bool ProgressEnabled() {
  return g_sink.load(std::memory_order_acquire) != nullptr;
}

void EmitProgress(const ProgressEvent& event) {
  ProgressSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink == nullptr) return;
  ProgressState& state = GetProgressState();
  std::lock_guard<std::mutex> lock(state.mu);
  sink = g_sink.load(std::memory_order_acquire);  // re-check under the lock
  if (sink == nullptr) return;
  sink->OnEvent(event);
}

void EmitStage(const std::string& stage, const std::string& phase,
               bool terminal) {
  if (!ProgressEnabled()) return;
  ProgressEvent event;
  event.stage = stage;
  event.phase = phase;
  event.terminal = terminal;
  EmitProgress(event);
}

std::string ProgressEventJson(const ProgressEvent& event, uint64_t seq,
                              double elapsed_ms, std::string_view job_id) {
  json::Writer w;
  w.BeginObject();
  w.Key("kind");
  w.String("multiclust.progress");
  w.Key("schema_version");
  w.Int(kProgressSchemaVersion);
  if (!job_id.empty()) {
    w.Key("job");
    w.String(job_id);
  }
  w.Key("seq");
  w.Uint(seq);
  w.Key("elapsed_ms");
  w.Double(elapsed_ms);
  w.Key("stage");
  w.String(event.stage);
  w.Key("phase");
  w.String(event.phase);
  if (event.restart >= 0) {
    w.Key("restart");
    w.Int(event.restart);
  }
  if (event.iteration >= 0) {
    w.Key("iteration");
    w.Int(event.iteration);
  }
  if (!std::isnan(event.objective)) {
    w.Key("objective");
    w.Double(event.objective);
  }
  if (!std::isnan(event.delta)) {
    w.Key("delta");
    w.Double(event.delta);
  }
  if (!std::isnan(event.budget_remaining_ms)) {
    w.Key("budget_remaining_ms");
    w.Double(event.budget_remaining_ms);
  }
  if (!std::isnan(event.eta_ms)) {
    w.Key("eta_ms");
    w.Double(event.eta_ms);
  }
  if (event.terminal) {
    w.Key("terminal");
    w.Bool(true);
  }
  w.EndObject();
  return std::move(w).str();
}

NdjsonProgressSink::NdjsonProgressSink(std::FILE* out, bool take_ownership)
    : out_(out), owned_(take_ownership) {}

NdjsonProgressSink::~NdjsonProgressSink() {
  if (out_ == nullptr) return;
  if (owned_) {
    std::fclose(out_);  // flushes any batched iteration lines
  } else {
    std::fflush(out_);  // borrowed stream (stdout): deliver the tail
  }
}

void NdjsonProgressSink::OnEvent(const ProgressEvent& event) {
  if (out_ == nullptr) return;
  // seq restarts at 1 per sink, independent of the dispatcher's global
  // counter, so one stream is self-consistent even after sink swaps.
  const double now_ms = NowMs();
  const std::string line = ProgressEventJson(event, ++events_written_, now_ms);
  std::fwrite(line.data(), 1, line.size(), out_);
  std::fputc('\n', out_);
  // Flush policy: stage boundaries and terminal events flush immediately
  // (a tailing consumer must see them live); dense iteration bursts batch
  // inside a short window so the armed hot path pays one write syscall
  // per ~25 ms instead of one per iteration. fclose (or the next
  // boundary event) delivers whatever is buffered.
  if (event.terminal || event.phase != "iteration" ||
      now_ms - last_flush_ms_ >= kFlushIntervalMs) {
    std::fflush(out_);
    last_flush_ms_ = now_ms;
  }
}

// --- Periodic OpenMetrics export --------------------------------------------

namespace {

struct ExportState {
  std::mutex mu;
  std::thread thread;
  std::atomic<bool> running{false};
  std::atomic<bool> stop{false};
  std::string path;
};

ExportState& GetExportState() {
  static ExportState* state = new ExportState();
  return *state;
}

// 0-based snapshot-write attempt of this process, the fault iteration
// for the "telemetry" site.
std::atomic<size_t> g_snapshot_attempts{0};

void ExportLoop(double period_ms) {
  ExportState& state = GetExportState();
  const auto period = std::chrono::duration<double, std::milli>(period_ms);
  while (!state.stop.load(std::memory_order_acquire)) {
    // Best-effort: a failed periodic snapshot (disk full, injected
    // fault) leaves the previous complete exposition in place and the
    // next period retries.
    (void)WriteMetricsSnapshotNow(state.path);
    std::this_thread::sleep_for(period);
  }
}

}  // namespace

Status WriteMetricsSnapshotNow(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("metrics export: empty path");
  }
  // Write-temp-then-rename through atomicio so a scraper never observes
  // a torn exposition, and so the PR-7 I/O fault kinds exercise this
  // writer: every injected failure cleans up its temp file (no
  // keep_temp_on_short_write — a metrics dir must never accumulate
  // stray *.tmp) and leaves the previous snapshot intact.
  atomicio::AtomicWriteOptions options;
  options.what = "metrics export";
  options.fault_site = "telemetry";
  options.io_step =
      g_snapshot_attempts.fetch_add(1, std::memory_order_relaxed);
  return atomicio::AtomicWritePath(path, metrics::OpenMetricsText(), options);
}

Status StartMetricsExport(const MetricsExportOptions& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("metrics export: empty path");
  }
  if (!(options.period_ms > 0.0)) {
    return Status::InvalidArgument(
        "metrics export: period_ms must be positive");
  }
  ExportState& state = GetExportState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.running.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("metrics export: already running");
  }
  state.path = options.path;
  state.stop.store(false, std::memory_order_release);
  state.thread = std::thread(ExportLoop, options.period_ms);
  state.running.store(true, std::memory_order_release);
  return Status::OK();
}

void StopMetricsExport() {
  ExportState& state = GetExportState();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.running.load(std::memory_order_acquire)) return;
  state.stop.store(true, std::memory_order_release);
  state.thread.join();
  state.running.store(false, std::memory_order_release);
  // Final snapshot: the run's end state (best-effort, like the loop's).
  (void)WriteMetricsSnapshotNow(state.path);
}

bool MetricsExportRunning() {
  return GetExportState().running.load(std::memory_order_acquire);
}

}  // namespace telemetry
}  // namespace multiclust
