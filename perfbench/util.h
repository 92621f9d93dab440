// Shared helpers of perfbench: clocks, order statistics,
// /proc readers and the result record every workload fills.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Build directory: holds discoverd and the serving session's spool.
  std::string bin_dir = ".bench_build";
  /// Recorded chosen_k / view_recovery_ari per input set.
  std::string expected_path = "perfbench/expected.tsv";
};

/// What one run measured and whether its outputs were correct.
struct RunResult {
  size_t attempted = 0;
  size_t failed = 0;
  /// Gate failures, one line each (printed to stderr).
  std::vector<std::string> errors;
  /// name -> value; units come from the metric catalogue in main.cc.
  std::map<std::string, double> metrics;

  /// Counts one attempted operation; `ok == false` counts it failed.
  void Attempt(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Fail(const std::string& what) { errors.push_back(what); }
};

/// Seconds on the steady clock.
double Now();
/// Process CPU seconds (user + system, all threads).
double CpuSeconds();

/// Quantile with linear interpolation between order statistics
/// (numpy's default); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Selected fields of /proc/<pid>/status (pid 0 = this process).
struct ProcStatus {
  double vm_size_mb = 0.0;
  double vm_hwm_mb = 0.0;
  double threads = 0.0;
};
ProcStatus ReadProcStatus(pid_t pid);

/// Environment record printed once per run: nproc, pool size, build type,
/// SIMD backend and the compiled-in tracing / fault-injection switches.
std::string EnvironmentJson(size_t pool_threads);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
