// The workloads: one in-process DiscoverMultipleClusterings job on planted
// two-view data, repeated many times in one run.
//
//   autok_deckm_8k      dec-kmeans, k = 0 (select k in [2, 6]), n = 8000
//   spectral_views_250  spectral-views (mSC), k = 3, n = 250
//
// The traced run of autok_deckm_8k also drives discoverd (serve.cc) for the
// serving-plane layers.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/generators.h"
#include "metrics/partition_similarity.h"
#include "replay.h"

namespace perfbench {

using namespace multiclust;

namespace {

struct WorkloadSpec {
  const char* name;
  size_t n;
  DiscoveryStrategy strategy;
  size_t k;
  /// Progress stage whose start the in-process cancel probe waits for.
  const char* cancel_stage;
  size_t cancel_probes;
  /// The traced run also drives discoverd for the serving-plane layers.
  bool serve_session;
};

constexpr WorkloadSpec kSpecs[] = {
    {"autok_deckm_8k", 8000, DiscoveryStrategy::kDecorrelatedKMeans, 0,
     "pipeline.select_k", 8, true},
    {"spectral_views_250", 250, DiscoveryStrategy::kSpectralViews, 3,
     "spectral-views", 15, false},
};

/// The planted structure (cluster centres) is fixed; the seed draws which
/// n of the 4n generated points a run sees, and the pipeline seed. Keeping
/// the structure fixed keeps a job's work the same across seeds.
constexpr uint64_t kStructureSeed = 4;
constexpr size_t kSetupReps = 15;
constexpr size_t kMinTimedJobs = 5;
/// Length of the traced run's serving session.
constexpr double kServeSessionS = 15.0;

struct Input {
  Matrix data;
  std::vector<std::vector<int>> truths;
};

Result<Input> MakeInput(size_t n, uint64_t input_set) {
  std::vector<ViewSpec> views(2);
  for (ViewSpec& v : views) {
    v.num_dims = 3;
    v.num_clusters = 3;
  }
  MC_ASSIGN_OR_RETURN(Dataset pool,
                      MakeMultiView(4 * n, views, 0, kStructureSeed));
  std::vector<size_t> rows(pool.num_objects());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Rng rng(SplitMix64(input_set + 1));
  for (size_t i = 0; i < n; ++i) {
    std::swap(rows[i], rows[i + rng.NextIndex(rows.size() - i)]);
  }
  rows.resize(n);
  Input input;
  input.data = Matrix(n, pool.data().cols());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < pool.data().cols(); ++j) {
      input.data.at(i, j) = pool.data().at(rows[i], j);
    }
  }
  for (const std::string& name : pool.GroundTruthNames()) {
    MC_ASSIGN_OR_RETURN(std::vector<int> truth, pool.GroundTruth(name));
    std::vector<int> picked(n);
    for (size_t i = 0; i < n; ++i) picked[i] = truth[rows[i]];
    input.truths.push_back(std::move(picked));
  }
  return input;
}

DiscoveryOptions MakeOptions(const WorkloadSpec& spec, uint64_t input_set) {
  DiscoveryOptions options;
  options.strategy = spec.strategy;
  options.k = spec.k;
  options.max_k = 6;
  options.seed = 1 + input_set;
  return options;
}

// Mean over planted views of the best ARI among the returned solutions.
double ViewRecoveryAri(const SolutionSet& solutions,
                       const std::vector<std::vector<int>>& truths) {
  double sum = 0.0;
  for (const std::vector<int>& truth : truths) {
    double best = -1.0;
    for (size_t i = 0; i < solutions.size(); ++i) {
      Result<double> ari = AdjustedRandIndex(solutions.at(i).labels, truth);
      if (ari.ok()) best = std::max(best, *ari);
    }
    sum += best;
  }
  return truths.empty() ? 0.0 : sum / static_cast<double>(truths.size());
}

struct Expected {
  size_t chosen_k = 0;
  double ari = 0.0;
  bool found = false;
};

// expected.tsv: "<workload> <input set> <chosen_k> <view_recovery_ari>".
Expected LookupExpected(const std::string& path, const std::string& workload,
                        uint64_t input_set) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    uint64_t set = 0;
    Expected row;
    if (fields >> name >> set >> row.chosen_k >> row.ari &&
        name == workload && set == input_set) {
      row.found = true;
      return row;
    }
  }
  return Expected();
}

/// Cancels `token` when the watched stage starts, noting the time.
class CancelOnStage : public telemetry::ProgressSink {
 public:
  CancelOnStage(std::string stage, CancelToken* token)
      : stage_(std::move(stage)), token_(token) {}
  void OnEvent(const telemetry::ProgressEvent& event) override {
    if (cancelled_at_.load() == 0.0 && event.stage == stage_ &&
        event.phase == "start") {
      cancelled_at_.store(Now());
      token_->Cancel();
    }
  }
  double cancelled_at() const { return cancelled_at_.load(); }

 private:
  std::string stage_;
  CancelToken* token_;
  std::atomic<double> cancelled_at_{0.0};
};

struct JobTimes {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class WorkloadRun {
 public:
  WorkloadRun(const WorkloadSpec& spec, const Args& args, RunResult* result)
      : spec_(spec), args_(args), result_(result),
        input_set_(args.seed % kInputSets) {}

  bool Setup() {
    std::vector<double> samples;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      const double start = Now();
      SetThreadCount(kPoolThreads);
      ParallelFor(0, kPoolThreads, 1, [](size_t, size_t) {});
      Result<Input> input = MakeInput(spec_.n, input_set_);
      samples.push_back(Now() - start);
      if (!input.ok()) {
        result_->Fail("input: " + input.status().ToString());
        return false;
      }
      input_ = std::move(*input);
    }
    result_->metrics["setup_s"] = Median(samples);
    options_ = MakeOptions(spec_, input_set_);
    expected_ = LookupExpected(args_.expected_path, spec_.name, input_set_);
    if (!expected_.found) {
      result_->Fail("no recorded expectation for input set " +
                    std::to_string(input_set_));
    }
    return true;
  }

  // One timed job, gated on the recorded chosen_k / view_recovery_ari and
  // on labels identical to the run's first job. Set-up already started the
  // pool and built the input, so the first job is timed too.
  JobTimes Job() {
    JobTimes times;
    const double cpu0 = CpuSeconds();
    const double start = Now();
    Result<DiscoveryReport> report =
        DiscoverMultipleClusterings(input_.data, options_);
    times.wall_s = Now() - start;
    times.cpu_s = CpuSeconds() - cpu0;
    if (!report.ok()) {
      result_->Fail("job: " + report.status().ToString());
      result_->Attempt(false);
      return times;
    }
    const double ari = ViewRecoveryAri(report->solutions, input_.truths);
    if (reference_.empty()) {
      reference_ = report->solutions.Labels();
      ari_ = ari;
    }
    const bool ok = report->solutions.Labels() == reference_ &&
                    expected_.found && report->chosen_k == expected_.chosen_k &&
                    std::fabs(ari - expected_.ari) <= 1e-9;
    if (!ok) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "job: chosen_k %zu ari %.12f, expected %zu / %.12f",
                    report->chosen_k, ari, expected_.chosen_k, expected_.ari);
      result_->Fail(buf);
    }
    result_->Attempt(ok);
    return times;
  }

  // Cancel sent the moment the watched stage starts; latency runs to the
  // call's return, which must be kCancelled.
  double CancelProbe() {
    CancelToken token;
    CancelOnStage sink(spec_.cancel_stage, &token);
    DiscoveryOptions options = options_;
    options.budget.cancel = &token;
    telemetry::SetProgressSink(&sink);
    Result<DiscoveryReport> report =
        DiscoverMultipleClusterings(input_.data, options);
    const double end = Now();
    telemetry::SetProgressSink(nullptr);
    const bool ok = sink.cancelled_at() > 0.0 && !report.ok() &&
                    report.status().code() == StatusCode::kCancelled;
    if (!ok) result_->Fail("cancel probe did not end cancelled");
    result_->Attempt(ok);
    return ok ? end - sink.cancelled_at() : 0.0;
  }

  void Measure() {
    std::vector<double> walls;
    std::vector<double> cpus;
    const double start = Now();
    while (walls.size() < kMinTimedJobs || Now() - start < args_.seconds) {
      const JobTimes times = Job();
      walls.push_back(times.wall_s);
      cpus.push_back(times.cpu_s);
    }
    std::fprintf(stderr, "perfbench: job walls (s):");
    for (double w : walls) std::fprintf(stderr, " %.4f", w);
    std::fprintf(stderr, "\n");
    auto& m = result_->metrics;
    m["job_wall_s"] = Median(walls);
    m["job_cpu_s"] = Median(cpus);
    m["peak_rss_mb"] = ReadProcStatus(0).vm_hwm_mb;
    m["view_recovery_ari"] = ari_;
  }

  void Trace() {
    std::vector<LayerTimes> reps;
    const double start = Now();
    // A replay that no longer matches the call reports replay_match = 0;
    // only a failing call counts as a failed operation.
    do {
      reps.push_back(ReplayJob(input_.data, options_));
      result_->Attempt(reps.back().call_ok);
    } while (Now() - start < args_.seconds);
    AddLayerMetrics(reps, result_);
    std::vector<double> cancels;
    for (size_t i = 0; i < spec_.cancel_probes; ++i) {
      cancels.push_back(CancelProbe());
    }
    result_->metrics["runguard.cancel_latency_s"] = Median(cancels);
    if (spec_.serve_session) RunServeSession(args_, kServeSessionS, result_);
  }

 private:
  const WorkloadSpec& spec_;
  const Args& args_;
  RunResult* result_;
  uint64_t input_set_;
  Input input_;
  DiscoveryOptions options_;
  Expected expected_;
  std::vector<std::vector<int>> reference_;
  double ari_ = 0.0;
};

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

void RunWorkload(const Args& args, RunResult* result) {
  WorkloadRun run(*FindSpec(args.workload), args, result);
  if (!run.Setup()) return;
  if (args.trace) {
    run.Trace();
  } else {
    run.Measure();
  }
}

void RecordExpectations() {
  SetThreadCount(kPoolThreads);
  for (const WorkloadSpec& spec : kSpecs) {
    for (uint64_t set = 0; set < kInputSets; ++set) {
      Result<Input> input = MakeInput(spec.n, set);
      Result<DiscoveryReport> report =
          input.ok() ? DiscoverMultipleClusterings(input->data,
                                                   MakeOptions(spec, set))
                     : Result<DiscoveryReport>(input.status());
      if (!report.ok()) {
        std::fprintf(stderr, "perfbench: %s set %llu: %s\n", spec.name,
                     static_cast<unsigned long long>(set),
                     report.status().ToString().c_str());
        continue;
      }
      std::printf("%s %llu %zu %.17g\n", spec.name,
                  static_cast<unsigned long long>(set), report->chosen_k,
                  ViewRecoveryAri(report->solutions, input->truths));
    }
  }
}

}  // namespace perfbench
