#include "common/profile.h"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace multiclust {
namespace telemetry {

namespace internal {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_flops{0};
std::atomic<uint64_t> g_kernel_bytes{0};
}  // namespace internal

namespace {

double NowWallUs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double TimevalUs(const struct timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 +
         static_cast<double>(tv.tv_usec);
}

}  // namespace

std::string ResourceProfile::ToString() const {
  if (!captured) return "(resource profile not captured)\n";
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line),
                "wall %.1f ms  user %.1f ms  sys %.1f ms\n", wall_ms,
                user_cpu_ms, system_cpu_ms);
  out += line;
  std::snprintf(line, sizeof(line),
                "peak rss %llu KB  faults %llu minor / %llu major\n",
                static_cast<unsigned long long>(peak_rss_kb),
                static_cast<unsigned long long>(minor_faults),
                static_cast<unsigned long long>(major_faults));
  out += line;
  std::snprintf(line, sizeof(line),
                "allocs %llu (%llu bytes)  kernel %llu flops / %llu bytes\n",
                static_cast<unsigned long long>(alloc_count),
                static_cast<unsigned long long>(alloc_bytes),
                static_cast<unsigned long long>(flops),
                static_cast<unsigned long long>(kernel_bytes));
  out += line;
  return out;
}

ResourceScope::ResourceScope() {
  start_wall_us_ = NowWallUs();
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    start_user_us_ = TimevalUs(usage.ru_utime);
    start_sys_us_ = TimevalUs(usage.ru_stime);
    start_minflt_ = static_cast<uint64_t>(usage.ru_minflt);
    start_majflt_ = static_cast<uint64_t>(usage.ru_majflt);
  }
  start_alloc_count_ =
      internal::g_alloc_count.load(std::memory_order_relaxed);
  start_alloc_bytes_ =
      internal::g_alloc_bytes.load(std::memory_order_relaxed);
  start_flops_ = internal::g_flops.load(std::memory_order_relaxed);
  start_kernel_bytes_ =
      internal::g_kernel_bytes.load(std::memory_order_relaxed);
}

ResourceProfile ResourceScope::Snapshot() const {
  ResourceProfile profile;
  profile.captured = true;
  profile.wall_ms = (NowWallUs() - start_wall_us_) / 1000.0;
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    profile.user_cpu_ms =
        (TimevalUs(usage.ru_utime) - start_user_us_) / 1000.0;
    profile.system_cpu_ms =
        (TimevalUs(usage.ru_stime) - start_sys_us_) / 1000.0;
    // ru_maxrss on Linux is in kilobytes and is a process-wide high-water
    // mark: report the end-of-scope value, not a delta.
    profile.peak_rss_kb = static_cast<uint64_t>(usage.ru_maxrss);
    const uint64_t minflt = static_cast<uint64_t>(usage.ru_minflt);
    const uint64_t majflt = static_cast<uint64_t>(usage.ru_majflt);
    profile.minor_faults = minflt - std::min(minflt, start_minflt_);
    profile.major_faults = majflt - std::min(majflt, start_majflt_);
  }
  profile.alloc_count =
      internal::g_alloc_count.load(std::memory_order_relaxed) -
      start_alloc_count_;
  profile.alloc_bytes =
      internal::g_alloc_bytes.load(std::memory_order_relaxed) -
      start_alloc_bytes_;
  profile.flops =
      internal::g_flops.load(std::memory_order_relaxed) - start_flops_;
  profile.kernel_bytes =
      internal::g_kernel_bytes.load(std::memory_order_relaxed) -
      start_kernel_bytes_;
  return profile;
}

}  // namespace telemetry
}  // namespace multiclust
