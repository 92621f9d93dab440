#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/json.h"
#include "common/telemetry.h"
#include "linalg/kernels.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

std::string ProcPath(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

}  // namespace

ProcStatus ReadProcStatus(pid_t pid) {
  ProcStatus out;
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    double value = 0.0;
    if (std::sscanf(line.c_str(), "VmSize: %lf", &value) == 1) {
      out.vm_size_mb = value / 1024.0;
    } else if (std::sscanf(line.c_str(), "VmHWM: %lf", &value) == 1) {
      out.vm_hwm_mb = value / 1024.0;
    } else if (std::sscanf(line.c_str(), "Threads: %lf", &value) == 1) {
      out.threads = value;
    }
  }
  return out;
}

std::string EnvironmentJson(size_t pool_threads) {
  multiclust::json::Writer w;
  w.BeginObject();
  w.Key("env");
  w.BeginObject();
  w.Key("nproc");
  w.Uint(std::thread::hardware_concurrency());
  w.Key("pool_threads");
  w.Uint(pool_threads);
  w.Key("build_type");
  w.String(PERFBENCH_BUILD_TYPE);
  w.Key("simd_backend");
  w.String(multiclust::kernels::Info().backend);
  w.Key("tracing");
  w.Bool(multiclust::telemetry::kTelemetryCompiledIn);
  w.Key("fault_injection");
#if defined(MULTICLUST_FAULT_INJECTION)
  w.Bool(true);
#else
  w.Bool(false);
#endif
  w.EndObject();
  w.EndObject();
  return std::move(w).str();
}

}  // namespace perfbench
