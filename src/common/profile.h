#ifndef MULTICLUST_COMMON_PROFILE_H_
#define MULTICLUST_COMMON_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace multiclust {
namespace telemetry {

/// Per-run resource accounting: what one invocation (an algorithm run, a
/// strategy attempt, a whole discovery call) cost the process. All fields
/// are deltas between the scope's begin and end, except `peak_rss_kb`,
/// which is the process high-water mark at scope end (rusage cannot give a
/// windowed peak).
///
/// The struct rides on RunDiagnostics and the DiscoveryReport. A profile
/// with `captured == false` (no ResourceScope measured it) serializes as an
/// absent "resource" member in report JSON.
struct ResourceProfile {
  bool captured = false;
  double wall_ms = 0.0;        ///< wall-clock time of the scope
  double user_cpu_ms = 0.0;    ///< ru_utime delta
  double system_cpu_ms = 0.0;  ///< ru_stime delta
  uint64_t peak_rss_kb = 0;    ///< ru_maxrss at scope end (process-wide)
  uint64_t minor_faults = 0;   ///< ru_minflt delta
  uint64_t major_faults = 0;   ///< ru_majflt delta
  uint64_t alloc_count = 0;    ///< Matrix/Dataset storage allocations
  uint64_t alloc_bytes = 0;    ///< bytes requested by those allocations
  uint64_t flops = 0;          ///< kernel-layer floating-point ops (est.)
  uint64_t kernel_bytes = 0;   ///< kernel-layer bytes touched (est.)

  std::string ToString() const;
};

namespace internal {
/// Process-wide allocation / kernel-work tallies. Relaxed atomics: totals
/// are exact, ordering is irrelevant. Exposed so the hot-path hooks below
/// inline to a single fetch_add.
extern std::atomic<uint64_t> g_alloc_count;
extern std::atomic<uint64_t> g_alloc_bytes;
extern std::atomic<uint64_t> g_flops;
extern std::atomic<uint64_t> g_kernel_bytes;
}  // namespace internal

/// Allocation hook, called from the Matrix/Dataset storage growth sites.
/// One relaxed add per allocation.
inline void CountAlloc(uint64_t bytes) {
  internal::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  internal::g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Kernel-work hook. Call at chunk granularity (one add per ParallelFor
/// chunk or per GEMM call), never inside an inner loop.
inline void CountFlops(uint64_t flops, uint64_t bytes) {
  internal::g_flops.fetch_add(flops, std::memory_order_relaxed);
  internal::g_kernel_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Captures resource deltas between construction and Finish(). Cheap to
/// construct (one getrusage + four relaxed loads); safe to nest — each
/// scope measures its own window of the shared process counters.
class ResourceScope {
 public:
  ResourceScope();

  /// The deltas since construction. Can be called repeatedly; each call
  /// re-reads the counters (the scope keeps accumulating).
  ResourceProfile Snapshot() const;

 private:
  double start_wall_us_ = 0.0;
  double start_user_us_ = 0.0;
  double start_sys_us_ = 0.0;
  uint64_t start_minflt_ = 0;
  uint64_t start_majflt_ = 0;
  uint64_t start_alloc_count_ = 0;
  uint64_t start_alloc_bytes_ = 0;
  uint64_t start_flops_ = 0;
  uint64_t start_kernel_bytes_ = 0;
};

}  // namespace telemetry
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_PROFILE_H_
