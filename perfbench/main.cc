// perfbench: end-to-end benchmark of multiclust discovery jobs.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--bin-dir DIR] [--expected FILE]
//   perfbench --record-expected > perfbench/expected.tsv
//
// Prints an environment record, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). See README.md for the metric definitions.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"
#include "common/parallel.h"
#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  /// Measured by the serving session only; 0 on a workload without one.
  bool serve = false;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"job_wall_s", "s"},
    {"job_cpu_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "fraction"},
    {"view_recovery_ari", "ARI"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.select_k_s", "s"},
    {"cluster.kmeans_s", "s"},
    {"metrics.silhouette_s", "s"},
    {"metrics.silhouette_calls", "count"},
    {"altspace.deckm_s", "s"},
    {"altspace.deckm_iterations", "count"},
    {"core.dedup_s", "s"},
    {"core.objective_s", "s"},
    {"stats.hsic_s", "s"},
    {"cluster.spectral_s", "s"},
    {"linalg.eigen_s", "s"},
    {"subspace.msc_s", "s"},
    {"telemetry.flops", "count"},
    {"telemetry.kernel_bytes", "bytes"},
    {"telemetry.alloc_count", "count"},
    {"stage_coverage_frac", "fraction"},
    {"replay_match", "bool"},
    {"runguard.cancel_latency_s", "s"},
    {"serve.job_latency_s", "s", true},
    {"serve.job_latency_s.p95", "s", true},
    {"serve.jobs_per_s", "1/s", true},
    {"serve.slo_met_frac", "fraction", true},
    {"serve.cancel_latency_s", "s", true},
    {"daemon.vm_growth_mb", "MB", true},
    {"serve.submit_ack_s", "s", true},
    {"serve.queue_wait_s", "s", true},
    {"serve.run_s", "s", true},
    {"serve.cancel_ack_s", "s", true},
    {"serve.cache_hit_frac", "fraction", true},
    {"serve.max_queued_seen", "count", true},
    {"serve.connections", "count", true},
    {"daemon.threads_end", "count", true},
    {"spool.ckpt_bytes_per_job", "bytes", true},
    {"spool.progress_events_per_job", "count", true},
    {"ledger.bytes_per_job", "bytes", true},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--bin-dir DIR] [--expected FILE]\n"
               "       perfbench --record-expected\n"
               "workloads: autok_deckm_8k spectral_views_250\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-expected") {
      RecordExpectations();
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--bin-dir") {
      args.bin_dir = value;
    } else if (flag == "--expected") {
      args.expected_path = value;
    } else {
      return Usage();
    }
  }
  if (!IsWorkload(args.workload)) return Usage();

  multiclust::SetThreadCount(kPoolThreads);
  std::printf("%s\n", EnvironmentJson(multiclust::ThreadCount()).c_str());
  RunResult result;
  RunWorkload(args, &result);
  result.metrics["ok_frac"] =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.attempted - result.failed) /
                static_cast<double>(result.attempted);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }

  const MetricDef* begin = args.trace ? std::begin(kPerLayer)
                                      : std::begin(kEndToEnd);
  const MetricDef* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef* m = begin; m != end; ++m) {
    if (result.metrics.count(m->name) == 0 && m->serve) {
      result.metrics[m->name] = 0.0;  // not on this workload's path
    }
    if (result.metrics.count(m->name) == 0) {
      std::fprintf(stderr, "perfbench: run ended without metric %s\n",
                   m->name);
      return 1;
    }
  }

  multiclust::json::Writer w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(result.errors.empty() && result.failed == 0 && result.attempted > 0);
  w.Key("attempted");
  w.Uint(std::max<size_t>(result.attempted, 1));
  w.Key("failed");
  w.Uint(result.attempted == 0 ? 1 : result.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const MetricDef* m = begin; m != end; ++m) {
    w.Key(m->name);
    w.BeginObject();
    w.Key("value");
    w.Double(result.metrics[m->name]);
    w.Key("unit");
    w.String(m->unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", std::move(w).str().c_str());
  return 0;
}
