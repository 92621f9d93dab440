// discover_cli: command-line entry point for the discovery pipeline.
// Reads a numeric CSV, finds several genuinely different clusterings, and
// writes the solutions back as label columns.
//
// Usage:
//   discover_cli <input.csv> [options]
//     --strategy=deckm|ortho|spectral|meta   (default deckm)
//     --solutions=N                          (default 2)
//     --k=K                                  (default 0 = auto silhouette)
//     --seed=S                               (default 1)
//     --out=path.csv                         (default: print summary only)
//     --label-column=NAME                    (drop this column from data)
//     --report-json=path.json                (write the machine-readable run
//                                             report: solutions, objective,
//                                             attempt diagnostics, metrics
//                                             and span summary — see
//                                             DESIGN.md "Report schema")
//     --checkpoint-dir=path                  (arm crash-consistent snapshots;
//                                             see DESIGN.md "Crash recovery")
//     --resume                               (restore from --checkpoint-dir
//                                             instead of clearing it)
//     --crash-at=N [--crash-site=NAME]       (fault injection: simulated
//                                             process death at persistence
//                                             point N of site NAME, default
//                                             "dec-kmeans"; exits 3)
//     --die-at=N [--crash-site=NAME]         (fault injection: a REAL
//                                             SIGSEGV raised at outer
//                                             iteration N of site NAME —
//                                             exercises the --crash-report
//                                             forensics path end to end)
//     --progress=PATH|-                      (stream live NDJSON progress
//                                             events to PATH, or to stdout
//                                             with "-"; human output moves
//                                             to stderr so the stream stays
//                                             machine-parseable)
//     --metrics-out=PATH                     (rewrite PATH with an
//                                             OpenMetrics snapshot every
//                                             500 ms and once at exit)
//     --flamegraph=PATH                      (trace the discovery call and
//                                             write its spans to PATH as
//                                             collapsed stacks weighted by
//                                             self time in µs, for
//                                             flamegraph.pl / speedscope;
//                                             prints the span table)
//     --run-ledger=PATH                      (append one multiclust.run_record
//                                             JSONL line to PATH describing
//                                             this run: fingerprint, seed,
//                                             build, status, objective and
//                                             artifact paths — see DESIGN.md
//                                             "Post-mortem & provenance")
//     --crash-report=PATH                    (install the async-signal-safe
//                                             crash handler: a fatal signal
//                                             dumps the flight recorder to
//                                             PATH as a multiclust.crash_report
//                                             JSON document before the
//                                             process dies)
//
// Signal contract:
//   SIGINT / SIGTERM — installed with sigaction(2) and SA_RESTART so
//     blocking syscalls resume instead of failing with EINTR. The handler
//     body is async-signal-safe and sig_atomic_t-clean: it stores the
//     signal number into a `volatile std::sig_atomic_t` flag and trips the
//     CancelToken (a single relaxed atomic store). The run winds down
//     cooperatively at its next guard check, flushes a final checkpoint
//     when armed, and exits 130 with a resume hint.
//   SIGSEGV / SIGBUS / SIGABRT / SIGFPE — only when --crash-report is
//     given: blackbox::InstallCrashHandler arms an async-signal-safe
//     handler that dumps the per-thread flight-recorder rings, open span
//     stacks and resource/fault/checkpoint state to the report path using
//     write(2) only, appends the pre-registered "crashed" line to the run
//     ledger (when --run-ledger is also given), then restores the default
//     disposition and re-raises so the process still dies with the
//     original signal (and its default exit status).
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 simulated crash (checkpoint on
// disk), 130 interrupted; fatal signals terminate with the default
// signal disposition after the crash report is written.
//
// With no arguments, runs a self-demo on the generated customer scenario.
#include <signal.h>

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/atomicio.h"
#include "common/blackbox.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/runledger.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "multiclust.h"
#include "serve/jobrunner.h"

using namespace multiclust;

namespace {

// Shared with the signal handler: CancelToken::Cancel is one relaxed
// atomic store, which is async-signal-safe.
CancelToken g_cancel;

// Which cooperative signal arrived (0 = none). `volatile sig_atomic_t` is
// the only object type the C standard guarantees a handler may write.
volatile std::sig_atomic_t g_signal_caught = 0;

extern "C" void HandleSignal(int sig) {
  g_signal_caught = sig;
  g_cancel.Cancel();
}

// Human-facing output stream. Normally stdout; when --progress=- claims
// stdout for the NDJSON event stream, every human line moves here (stderr)
// so consumers can pipe the events without filtering.
std::FILE* g_human = nullptr;

// Tears down the process-wide telemetry hooks in the right order no matter
// which exit path runs: the sink must be uninstalled before its owner
// destroys it, and the background threads must be joined before exit.
struct TelemetryTeardown {
  ~TelemetryTeardown() {
    telemetry::SetProgressSink(nullptr);
    if (telemetry::MetricsExportRunning()) telemetry::StopMetricsExport();
  }
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Exit codes: 1 = error, 2 = usage, 3 = simulated crash (checkpoint on
// disk), 130 = interrupted (checkpoint on disk when armed).
int ExitCodeFor(const Status& status) {
  if (status.code() == StatusCode::kAborted) return 3;
  if (status.code() == StatusCode::kCancelled) return 130;
  return 1;
}

// Ledger status string for a failed run, matching ExitCodeFor's mapping.
const char* StatusNameFor(const Status& status) {
  if (status.code() == StatusCode::kAborted) return "aborted";
  if (status.code() == StatusCode::kCancelled) return "cancelled";
  return "error";
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

// Installs HandleSignal for SIGINT and SIGTERM via sigaction(2) with
// SA_RESTART (see the signal contract in the file header).
void InstallCooperativeSignals() {
  struct sigaction sa = {};
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  g_human = stdout;
  std::string input;
  std::string out;
  std::string label_column;
  std::string report_json;
  std::string checkpoint_dir;
  std::string progress;
  std::string metrics_out;
  std::string flamegraph;
  std::string run_ledger;
  std::string crash_report;
  std::string crash_site = "dec-kmeans";
  bool resume = false;
  bool crash_armed = false;
  bool die_armed = false;
  size_t crash_at = 0;
  size_t die_at = 0;
  // What to run, in the exact form the daemon serves: discover_cli and
  // discoverd both hand a JobSpec to serve::JobRunner, so a CLI run and a
  // daemon job of the same spec are bit-identical by construction.
  serve::JobSpec spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "strategy", &value)) {
      spec.strategy = value;
    } else if (ParseFlag(arg, "solutions", &value)) {
      spec.solutions = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "k", &value)) {
      spec.k = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "seed", &value)) {
      spec.seed = static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "out", &value)) {
      out = value;
    } else if (ParseFlag(arg, "label-column", &value)) {
      label_column = value;
    } else if (ParseFlag(arg, "report-json", &value)) {
      report_json = value;
    } else if (ParseFlag(arg, "checkpoint-dir", &value)) {
      checkpoint_dir = value;
    } else if (ParseFlag(arg, "progress", &value)) {
      progress = value;
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      metrics_out = value;
    } else if (ParseFlag(arg, "flamegraph", &value)) {
      flamegraph = value;
    } else if (ParseFlag(arg, "run-ledger", &value)) {
      run_ledger = value;
    } else if (ParseFlag(arg, "crash-report", &value)) {
      crash_report = value;
    } else if (arg == "--resume") {
      resume = true;
    } else if (ParseFlag(arg, "crash-at", &value)) {
      crash_armed = true;
      crash_at = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "die-at", &value)) {
      die_armed = true;
      die_at = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "crash-site", &value)) {
      crash_site = value;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      input = arg;
    }
  }

  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }

  // --progress=- claims stdout for the event stream; everything meant for
  // a person moves to stderr.
  if (progress == "-") g_human = stderr;

  {
    DiscoveryStrategy parsed;
    if (!serve::ParseStrategyName(spec.strategy, &parsed).ok()) {
      std::fprintf(stderr, "unknown strategy '%s'\n", spec.strategy.c_str());
      return 2;
    }
  }

  // Load or self-generate. The CLI resolves the dataset itself (rather
  // than letting JobRunner do it) because the fingerprint must exist
  // BEFORE the run for the crash-ledger pre-registration below.
  if (input.empty()) {
    std::fprintf(g_human,
                 "(no input file: running the self-demo on the generated"
                 " customer scenario)\n");
    spec.scenario = "customer";
    spec.scenario_n = 300;
  } else {
    spec.input_csv = input;
    spec.label_column = label_column;
  }
  std::shared_ptr<const Dataset> dataset;
  {
    auto loaded = serve::LoadDataset(spec);
    if (!loaded.ok()) return Fail(loaded.status());
    dataset = std::make_shared<const Dataset>(std::move(loaded).value());
  }
  std::fprintf(g_human, "data: %zu objects x %zu attributes\n",
               dataset->num_objects(), dataset->num_dims());

  // Provenance: one multiclust.run_record per invocation once the inputs
  // are known. The fingerprint covers everything that shapes the result
  // (data contents, strategy, solution count, k, seed), so two ledger
  // lines with equal fingerprints ran the same work — the oracle the
  // crash-forensics CI leg uses to pair a crashed run with its resume.
  ledger::RunRecord rec;
  rec.fingerprint =
      serve::FingerprintHex(serve::WorkFingerprint(dataset->data(), spec));
  rec.run_id = ledger::GenerateRunId(spec.seed);
  rec.tool = "discover_cli";
  rec.seed = spec.seed;
  rec.workload = (input.empty() ? std::string("self-demo") : input) + " (" +
                 std::to_string(dataset->num_objects()) + "x" +
                 std::to_string(dataset->num_dims()) + ")";
  rec.strategy = spec.strategy;
  rec.report_path = report_json;
  rec.checkpoint_dir = checkpoint_dir;
  if (resume) rec.note = "resume";

  // Every exit path below this point goes through LedgerExit so the run
  // ledger records how the run ended (the crash handler covers the
  // fatal-signal paths with its pre-registered line instead).
  auto LedgerExit = [&](int code, const char* status_name) {
    if (!run_ledger.empty()) {
      rec.status = status_name;
      rec.exit_code = code;
      Status appended = ledger::Append(run_ledger, rec);
      if (!appended.ok()) {
        std::fprintf(stderr, "warning: --run-ledger: %s\n",
                     appended.ToString().c_str());
      }
    }
    return code;
  };
  auto LedgerFail = [&](const Status& status) {
    return LedgerExit(Fail(status), StatusNameFor(status));
  };

  // Arm the observability layer for the run when any artifact that feeds
  // off it was requested: the report carries the span summary and metrics
  // snapshot, the flame graph is derived from the buffered spans, and the
  // metrics exporter scrapes the registry.
  const bool wants_telemetry = !report_json.empty() || !progress.empty() ||
                               !metrics_out.empty() || !flamegraph.empty();
  if (wants_telemetry) {
    trace::Reset();
    metrics::Reset();
    trace::Enable();
  }

  // Live telemetry plane: progress stream, OpenMetrics export.
  // The sink must outlive the teardown guard (declared after it, destroyed
  // before it), which uninstalls the process-wide pointer first.
  std::unique_ptr<telemetry::NdjsonProgressSink> progress_sink;
  TelemetryTeardown teardown;
  if (!progress.empty()) {
    if (progress == "-") {
      progress_sink = std::make_unique<telemetry::NdjsonProgressSink>(stdout);
    } else {
      std::FILE* f = std::fopen(progress.c_str(), "w");
      if (f == nullptr) {
        return LedgerFail(Status::IoError("cannot open --progress file '" +
                                          progress + "'"));
      }
      progress_sink = std::make_unique<telemetry::NdjsonProgressSink>(
          f, /*take_ownership=*/true);
    }
    telemetry::SetProgressSink(progress_sink.get());
  }
  if (!metrics_out.empty()) {
    telemetry::MetricsExportOptions mopts;
    mopts.path = metrics_out;
    Status st = telemetry::StartMetricsExport(mopts);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: --metrics-out: %s\n",
                   st.ToString().c_str());
    }
  }
  // Cooperative shutdown: SIGINT/SIGTERM trip the cancel token; the run
  // winds down at its next guard check and flushes a final checkpoint.
  InstallCooperativeSignals();

  // Crash forensics: fatal signals dump the flight recorder to the report
  // path, and — when the ledger is armed too — append a pre-formatted
  // "crashed" record (the handler cannot build JSON; the line is rendered
  // here, in normal context, and only ever replayed by the handler).
  if (!crash_report.empty()) {
    Status installed = blackbox::InstallCrashHandler(crash_report);
    if (!installed.ok()) {
      std::fprintf(stderr, "warning: --crash-report: %s\n",
                   installed.ToString().c_str());
    } else if (!run_ledger.empty()) {
      ledger::RunRecord crashed = rec;
      crashed.status = "crashed";
      crashed.exit_code = -1;  // killed by signal: no exit code exists
      crashed.crash_report = crash_report;
      crashed.note = "terminated by fatal signal; see crash_report";
      blackbox::SetCrashLedger(run_ledger, ledger::RunRecordJson(crashed));
    }
  }

  if (crash_armed || die_armed) {
    FaultSpec spec;
    spec.site = crash_site;
    // --crash-at exits cleanly with code 3 at a persistence point;
    // --die-at raises a real SIGSEGV at the budget check, exercising the
    // --crash-report handler the way a genuine fault would.
    spec.kind = crash_armed ? FaultKind::kCrash : FaultKind::kRaiseSegv;
    spec.at_iteration = crash_armed ? crash_at : die_at;
    spec.max_fires = 1;
    fault::Arm(spec);
  }

  // The run itself goes through the shared serving-path executor
  // (serve::JobRunner): dataset pre-resolved above, checkpoint channel
  // armed from the flags, cancel token wired for the signal handler.
  serve::RunRequest run;
  run.spec = spec;
  run.dataset = dataset;
  run.checkpoint_dir = checkpoint_dir;
  run.resume = resume;
  run.cancel = &g_cancel;
  const serve::RunOutcome outcome = serve::JobRunner().Run(run);

  // The progress stream ends with exactly one terminal event, success or
  // not, so a tailing consumer knows the run is over.
  telemetry::EmitStage("run", outcome.status.ok() ? "complete" : "error",
                       /*terminal=*/true);

  if (!flamegraph.empty()) {
    atomicio::AtomicWriteOptions fopts;
    fopts.what = "--flamegraph";
    Status st = atomicio::AtomicWritePath(flamegraph, trace::CollapsedStacks(),
                                          fopts);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
    } else {
      std::fprintf(g_human,
                   "wrote collapsed span stacks of %zu spans to %s\n",
                   trace::EventCount(), flamegraph.c_str());
      std::fprintf(g_human, "%s", trace::SummaryString().c_str());
    }
  }

  for (const std::string& w : outcome.checkpoint_warnings) {
    std::fprintf(stderr, "checkpoint: %s\n", w.c_str());
  }
  if (!outcome.status.ok()) {
    if (!checkpoint_dir.empty() &&
        (outcome.status.code() == StatusCode::kAborted ||
         outcome.status.code() == StatusCode::kCancelled)) {
      std::fprintf(stderr,
                   "run interrupted; %zu snapshot(s) in %s — rerun with "
                   "--checkpoint-dir=%s --resume to continue\n",
                   outcome.snapshots_written, checkpoint_dir.c_str(),
                   checkpoint_dir.c_str());
    }
    return LedgerFail(outcome.status);
  }
  const DiscoveryReport& report = outcome.report;

  rec.objective = report.objective.mean_quality;
  std::fprintf(g_human, "strategy: %s, k = %zu, solutions found: %zu\n",
               report.strategy_name.c_str(), report.chosen_k,
               report.solutions.size());
  std::fprintf(g_human, "mean silhouette quality: %.3f\n",
               report.objective.mean_quality);
  std::fprintf(g_human, "mean pairwise dissimilarity: %.3f (min %.3f)\n",
               report.objective.mean_dissimilarity,
               report.objective.min_dissimilarity);
  std::fprintf(g_human, "%s", report.solutions.Summary().c_str());
  // Only when a telemetry surface was requested: the bare self-demo's
  // stdout stays byte-stable across runs (plain `diff` is a documented
  // determinism oracle), and wall-clock lines would break that.
  if (wants_telemetry && report.resource.captured) {
    std::fprintf(g_human, "%s", report.resource.ToString().c_str());
  }

  if (!out.empty()) {
    Dataset annotated(dataset->data(), dataset->column_names());
    for (size_t s = 0; s < report.solutions.size(); ++s) {
      Status st = annotated.AddGroundTruth(
          "solution" + std::to_string(s), report.solutions.at(s).labels);
      if (!st.ok()) return LedgerFail(st);
    }
    Status st = WriteCsv(annotated, out);
    if (!st.ok()) return LedgerFail(st);
    std::fprintf(g_human, "wrote %s with %zu solution columns\n", out.c_str(),
                 report.solutions.size());
  }

  if (!report_json.empty()) {
    Status st = WriteDiscoveryReport(report_json, report);
    trace::Disable();
    if (!st.ok()) return LedgerFail(st);
    std::fprintf(g_human, "wrote run report to %s\n", report_json.c_str());
  }
  return LedgerExit(0, "ok");
}
