// Measures what the run-guard layer (RunBudget bookkeeping + fault-site
// checks + ValidateMatrix at entry) adds to the k-means and GMM hot loops.
// Each pair runs the identical workload with no budget (guards on their
// fast path) and with a full budget (deadline + iteration cap + cancel
// token armed, none of which fire). The acceptance bar is < 2% overhead.
//
// The TracingArmed/TracingDisarmed pairs do the same for the observability
// layer: identical workloads with a ConvergenceTrace sink attached, once
// with the span tracer + metrics recording live and once with the tracer
// disabled (the production default). Same < 2% bar.
//
// The CheckpointArmed/CheckpointDisarmed pairs measure the checkpoint
// subsystem's hook cost: a Checkpointer attached via RunBudget::checkpoint
// with a policy whose triggers are all disabled, so every persistence point
// pays the restore probe + policy evaluation but no snapshot is ever
// written (writes are policy-paced I/O, not per-iteration overhead). The
// disarmed side is a null checkpoint pointer — one pointer test per
// iteration, the production default. Same < 2% bar. The k-means pair is
// the noisiest in the file, so it runs repeated and reports medians.
// KMeansCheckpointEveryIter times the full write path instead: a snapshot
// at every persistence point (payload serialization, CRC, atomic write +
// fsync, read-back verification, rotation). It has no bar; it prices a
// snapshot.
//
// The TelemetryArmed/Disarmed pairs measure the live progress stream: an
// NdjsonProgressSink swallowing events into /dev/null versus no sink.
// Same < 2% bar (see EXPERIMENTS.md §T3).
//
// The BlackboxArmed/Disarmed pair measures the always-on flight recorder
// (common/blackbox.h): a full-budget k-means run with ring recording on
// (the production default — every span boundary and budget check appends
// one fixed-size record) versus recording off. Same < 2% bar.
//
// Harness flags (--json=PATH, --quick) are consumed before
// benchmark::Initialize; the overhead ratios land in the JSON document as
// timing scalars plus warn-severity checks against the 2% bar.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "common/blackbox.h"
#include "common/checkpoint.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/generators.h"
#include "harness.h"

using namespace multiclust;

namespace {

Matrix BenchData() {
  auto ds = MakeBlobs({{{0, 0, 0, 0, 0, 0, 0, 0}, 1.0, 250},
                       {{8, 0, 8, 0, 8, 0, 8, 0}, 1.0, 250},
                       {{0, 8, 0, 8, 0, 8, 0, 8}, 1.0, 250}},
                      7);
  return ds->data();
}

KMeansOptions KmOptions() {
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.max_iters = 50;
  opts.seed = 7;
  return opts;
}

GmmOptions GmOptions() {
  GmmOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.max_iters = 30;
  opts.seed = 7;
  return opts;
}

// A budget wide enough that no limit ever fires: the run takes the exact
// same path as an unlimited one but pays every guard check.
RunBudget WideBudget(const CancelToken* cancel) {
  RunBudget budget;
  budget.deadline_ms = 3.6e6;  // one hour
  budget.max_iterations = 1u << 20;
  budget.cancel = cancel;
  return budget;
}

void BM_KMeansNoBudget(benchmark::State& state) {
  const Matrix data = BenchData();
  const KMeansOptions opts = KmOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansNoBudget);

void BM_KMeansFullBudget(benchmark::State& state) {
  const Matrix data = BenchData();
  CancelToken cancel;
  KMeansOptions opts = KmOptions();
  opts.budget = WideBudget(&cancel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansFullBudget);

void BM_GmmNoBudget(benchmark::State& state) {
  const Matrix data = BenchData();
  const GmmOptions opts = GmOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
}
BENCHMARK(BM_GmmNoBudget);

void BM_GmmFullBudget(benchmark::State& state) {
  const Matrix data = BenchData();
  CancelToken cancel;
  GmmOptions opts = GmOptions();
  opts.budget = WideBudget(&cancel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
}
BENCHMARK(BM_GmmFullBudget);

void BM_KMeansTracingDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  KMeansOptions opts = KmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Disable();
  for (auto _ : state) {
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansTracingDisarmed);

void BM_KMeansTracingArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  KMeansOptions opts = KmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Enable();
  for (auto _ : state) {
    // Reset inside the timed region: a real consumer drains the buffers
    // periodically, and without it the armed run would also be measuring
    // unbounded buffer growth.
    trace::Reset();
    metrics::Reset();
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
  trace::Disable();
  trace::Reset();
}
BENCHMARK(BM_KMeansTracingArmed);

void BM_GmmTracingDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  GmmOptions opts = GmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Disable();
  for (auto _ : state) {
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
}
BENCHMARK(BM_GmmTracingDisarmed);

void BM_GmmTracingArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  GmmOptions opts = GmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Enable();
  for (auto _ : state) {
    trace::Reset();
    metrics::Reset();
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
  trace::Disable();
  trace::Reset();
}
BENCHMARK(BM_GmmTracingArmed);

// Telemetry-plane pairs: identical tracer-armed workloads, once with no
// progress sink (the production default — ProgressEnabled() is one relaxed
// load per recorded iteration) and once with an NdjsonProgressSink
// swallowing every event into /dev/null, so each recorded iteration pays
// event construction, JSON serialization and a flushed write. Same < 2%
// bar.
void BM_KMeansTelemetryDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  KMeansOptions opts = KmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Enable();
  for (auto _ : state) {
    trace::Reset();
    metrics::Reset();
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
  trace::Disable();
  trace::Reset();
}
BENCHMARK(BM_KMeansTelemetryDisarmed);

void BM_KMeansTelemetryArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  KMeansOptions opts = KmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Enable();
  telemetry::NdjsonProgressSink sink(std::fopen("/dev/null", "w"),
                                     /*take_ownership=*/true);
  telemetry::SetProgressSink(&sink);
  for (auto _ : state) {
    trace::Reset();
    metrics::Reset();
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
  telemetry::SetProgressSink(nullptr);
  trace::Disable();
  trace::Reset();
}
BENCHMARK(BM_KMeansTelemetryArmed);

void BM_GmmTelemetryDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  GmmOptions opts = GmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Enable();
  for (auto _ : state) {
    trace::Reset();
    metrics::Reset();
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
  trace::Disable();
  trace::Reset();
}
BENCHMARK(BM_GmmTelemetryDisarmed);

void BM_GmmTelemetryArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  GmmOptions opts = GmOptions();
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  trace::Enable();
  telemetry::NdjsonProgressSink sink(std::fopen("/dev/null", "w"),
                                     /*take_ownership=*/true);
  telemetry::SetProgressSink(&sink);
  for (auto _ : state) {
    trace::Reset();
    metrics::Reset();
    diag = RunDiagnostics();
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
  telemetry::SetProgressSink(nullptr);
  trace::Disable();
  trace::Reset();
}
BENCHMARK(BM_GmmTelemetryArmed);

// Armed-but-silent snapshot channel: both cadence triggers disabled, so
// AtPersistencePoint evaluates the policy and returns without touching the
// filesystem. TryRestore at algorithm entry scans an empty scratch
// directory — part of the honest armed cost.
Checkpointer* SilentCheckpointer() {
  static Checkpointer* ck = [] {
    char tmpl[] = "/tmp/multiclust_bench_ckpt_XXXXXX";
    char* dir = mkdtemp(tmpl);
    CheckpointPolicy policy;
    policy.every_iterations = 0;
    policy.min_interval_ms = 0.0;
    return new Checkpointer(dir != nullptr ? dir : "/tmp", policy);
  }();
  return ck;
}

// Repetitions for the noisy k-means checkpoint pairs; the harness records
// their medians.
constexpr int kCheckpointRepetitions = 7;

void BM_KMeansCheckpointDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  const KMeansOptions opts = KmOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansCheckpointDisarmed)->Repetitions(kCheckpointRepetitions);

void BM_KMeansCheckpointArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  KMeansOptions opts = KmOptions();
  opts.budget.checkpoint = SilentCheckpointer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansCheckpointArmed)->Repetitions(kCheckpointRepetitions);

// Snapshot at every persistence point. The directory is cleared (untimed)
// before each run, so every run starts cold instead of resuming from the
// previous run's final snapshot.
void BM_KMeansCheckpointEveryIter(benchmark::State& state) {
  const Matrix data = BenchData();
  char tmpl[] = "/tmp/multiclust_bench_ckpt_XXXXXX";
  char* dir = mkdtemp(tmpl);
  Checkpointer ck(dir != nullptr ? dir : "/tmp", CheckpointPolicy{});
  KMeansOptions opts = KmOptions();
  opts.budget.checkpoint = &ck;
  for (auto _ : state) {
    state.PauseTiming();
    (void)ck.Clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
  state.counters["snapshots_per_run"] =
      static_cast<double>(ck.snapshots_written()) /
      static_cast<double>(state.iterations());
  (void)ck.Clear();
  if (dir != nullptr) rmdir(dir);
}
BENCHMARK(BM_KMeansCheckpointEveryIter)->Repetitions(kCheckpointRepetitions);

void BM_GmmCheckpointDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  const GmmOptions opts = GmOptions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
}
BENCHMARK(BM_GmmCheckpointDisarmed);

void BM_GmmCheckpointArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  GmmOptions opts = GmOptions();
  opts.budget.checkpoint = SilentCheckpointer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
}
BENCHMARK(BM_GmmCheckpointArmed);

// Armed-but-idle fault injector: a spec armed against a site that never
// matches, so every MC_FAULT_FIRES hook in the hot loop leaves the
// one-atomic-load fast path and takes the registry mutex, but nothing
// fires and the computed result is untouched. This is the worst case a
// chaos campaign imposes on iterations its schedule does not target.
void BM_KMeansFaultDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  const KMeansOptions opts = KmOptions();
  fault::Reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansFaultDisarmed);

void BM_KMeansFaultArmedIdle(benchmark::State& state) {
  const Matrix data = BenchData();
  const KMeansOptions opts = KmOptions();
  fault::Reset();
  fault::Arm({"no-such-site", FaultKind::kInjectNaN, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
  fault::Reset();
}
BENCHMARK(BM_KMeansFaultArmedIdle);

void BM_GmmFaultDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  const GmmOptions opts = GmOptions();
  fault::Reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
}
BENCHMARK(BM_GmmFaultDisarmed);

void BM_GmmFaultArmedIdle(benchmark::State& state) {
  const Matrix data = BenchData();
  const GmmOptions opts = GmOptions();
  fault::Reset();
  fault::Arm({"no-such-site", FaultKind::kInjectNaN, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitGmm(data, opts));
  }
  fault::Reset();
}
BENCHMARK(BM_GmmFaultArmedIdle);

// Flight-recorder pair: a full budget keeps the per-iteration blackbox
// hook live (ShouldStop records one kIteration event per check, every
// span boundary two more). The armed side is the production default —
// recording into the fixed rings; the disarmed side turns recording off,
// leaving only the enabled-flag load at each hook.
void BM_KMeansBlackboxDisarmed(benchmark::State& state) {
  const Matrix data = BenchData();
  CancelToken cancel;
  KMeansOptions opts = KmOptions();
  opts.budget = WideBudget(&cancel);
  blackbox::SetEnabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
  blackbox::SetEnabled(true);
}
BENCHMARK(BM_KMeansBlackboxDisarmed);

void BM_KMeansBlackboxArmed(benchmark::State& state) {
  const Matrix data = BenchData();
  CancelToken cancel;
  KMeansOptions opts = KmOptions();
  opts.budget = WideBudget(&cancel);
  blackbox::SetEnabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunKMeans(data, opts));
  }
}
BENCHMARK(BM_KMeansBlackboxArmed);

double TimeUnitToMs(benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond:
      return 1e-6;
    case benchmark::kMicrosecond:
      return 1e-3;
    case benchmark::kMillisecond:
      return 1.0;
    case benchmark::kSecond:
      return 1e3;
  }
  return 1e-6;
}

// ConsoleReporter that also records each run into the harness.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::Harness* harness) : harness_(harness) {}

  // Single-run benchmarks are recorded as they are; repeated ones by their
  // median, under the same "<function>_ms" name.
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.report_big_o || run.report_rms || run.error_occurred) continue;
      const bool repeated = run.repetitions > 1;
      if (repeated ? run.run_type != Run::RT_Aggregate ||
                         run.aggregate_name != "median"
                   : run.run_type != Run::RT_Iteration) {
        continue;
      }
      harness_->Timing(run.run_name.function_name + "_ms",
                       run.GetAdjustedRealTime() * TimeUnitToMs(run.time_unit));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::Harness* harness_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("bench_runguard_overhead",
                   "run-guard and tracing overhead on the hot loops");
  if (!h.ParseArgs(&argc, argv)) return h.ExitCode();

  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (h.quick()) args.push_back(min_time.data());
  args.push_back(nullptr);
  int bench_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }

  CapturingReporter reporter(&h);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Overhead ratios from the captured pairs. Warn severity: the <2% bar is
  // an acceptance target on a quiet host, not a determinism guarantee.
  struct Pair {
    const char* metric;
    const char* base;
    const char* with;
    bool bar = true;  ///< held to the < 2% overhead bar
  };
  const Pair pairs[] = {
      {"kmeans_budget_overhead_pct", "BM_KMeansNoBudget_ms",
       "BM_KMeansFullBudget_ms"},
      {"gmm_budget_overhead_pct", "BM_GmmNoBudget_ms", "BM_GmmFullBudget_ms"},
      {"kmeans_tracing_overhead_pct", "BM_KMeansTracingDisarmed_ms",
       "BM_KMeansTracingArmed_ms"},
      {"gmm_tracing_overhead_pct", "BM_GmmTracingDisarmed_ms",
       "BM_GmmTracingArmed_ms"},
      {"kmeans_telemetry_overhead_pct", "BM_KMeansTelemetryDisarmed_ms",
       "BM_KMeansTelemetryArmed_ms"},
      {"gmm_telemetry_overhead_pct", "BM_GmmTelemetryDisarmed_ms",
       "BM_GmmTelemetryArmed_ms"},
      {"kmeans_checkpoint_overhead_pct", "BM_KMeansCheckpointDisarmed_ms",
       "BM_KMeansCheckpointArmed_ms"},
      {"gmm_checkpoint_overhead_pct", "BM_GmmCheckpointDisarmed_ms",
       "BM_GmmCheckpointArmed_ms"},
      {"kmeans_checkpoint_every_iter_overhead_pct",
       "BM_KMeansCheckpointDisarmed_ms", "BM_KMeansCheckpointEveryIter_ms",
       /*bar=*/false},
      {"kmeans_fault_idle_overhead_pct", "BM_KMeansFaultDisarmed_ms",
       "BM_KMeansFaultArmedIdle_ms"},
      {"gmm_fault_idle_overhead_pct", "BM_GmmFaultDisarmed_ms",
       "BM_GmmFaultArmedIdle_ms"},
      {"kmeans_blackbox_overhead_pct", "BM_KMeansBlackboxDisarmed_ms",
       "BM_KMeansBlackboxArmed_ms"},
  };
  for (const Pair& p : pairs) {
    const double base = h.ScalarValue(p.base, 0.0);
    const double with = h.ScalarValue(p.with, 0.0);
    if (base <= 0.0 || with <= 0.0) {
      h.Check(p.metric, false, "both runs of the pair must have completed");
      continue;
    }
    const double pct = 100.0 * (with - base) / base;
    std::printf("%s: %+.2f%%\n", p.metric, pct);
    bench::ValueOptions pct_opts;
    pct_opts.unit = "%";
    pct_opts.timing = true;  // derived from wall-clock: warn-only in diffs
    h.Scalar(p.metric, pct, pct_opts);
    if (!p.bar) continue;
    h.WarnCheck(std::string(p.metric) + "_under_2pct", pct < 2.0,
                "guard/tracing overhead should stay under the 2% bar "
                "(host-dependent)");
  }
  return h.Finish();
}
