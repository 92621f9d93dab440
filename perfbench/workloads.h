// The benchmark's workloads. Each fills a RunResult with its end-to-end
// metrics (Args::trace == false) or its per-layer metrics (true).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

/// Thread-pool size of every job (SetThreadCount; MULTICLUST_THREADS for
/// the daemon).
inline constexpr size_t kPoolThreads = 2;
/// Inputs come in this many recorded sets; --seed picks one.
inline constexpr uint64_t kInputSets = 64;

bool IsWorkload(const std::string& name);
void RunWorkload(const Args& args, RunResult* result);
/// Prints expected.tsv: one line per workload and input set.
void RecordExpectations();

/// Drives discoverd with the mixed serving load for `seconds` and stores
/// the serving-plane per-layer metrics.
void RunServeSession(const Args& args, double seconds, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
