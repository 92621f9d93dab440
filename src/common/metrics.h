#ifndef MULTICLUST_COMMON_METRICS_H_
#define MULTICLUST_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace multiclust {

/// Process-wide registry of named counters.
///
/// Naming follows the `<module>.<algo>.<event>` convention (see DESIGN.md
/// "Observability"), e.g. `cluster.kmeans.reseeds`. The registry is
/// lock-striped (a name is hashed to one of several independently locked
/// shards), registered counters are never deallocated, and every update is
/// a relaxed atomic — safe under the `ParallelFor` thread pool.
///
/// Determinism: counters are integers updated with commutative atomic
/// adds, so for a fixed workload their totals are bit-identical at any
/// thread count.
///
/// Hot paths use MC_METRIC_COUNT, which caches the registry lookup in a
/// function-local static.
namespace metrics {

/// Monotonic integer counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Registry lookup. The returned reference stays valid for the process
/// lifetime (Reset() zeroes values, it never deallocates a counter).
Counter& GetCounter(const std::string& name);

/// Zeroes every registered counter (registrations themselves are kept, so
/// cached references from MC_METRIC_COUNT stay valid).
void Reset();

/// Human-readable table of every counter, sorted by name.
std::string SummaryString();

/// Machine-readable registry dump: a JSON array sorted by name,
///   [{"name":"cluster.kmeans.iterations","kind":"counter","value":42}].
/// Embedded verbatim in the report artifact (common/report.h).
std::string MetricsJson();

/// The registry rendered as OpenMetrics text exposition (the Prometheus
/// scrape format): `multiclust_`-prefixed sanitized names (`.` -> `_`)
/// with the counter `_total` suffix, ending with the required `# EOF`
/// line. This is the wire format a `discoverd` scraper consumes
/// (`discover_cli --metrics-out=PATH`).
std::string OpenMetricsText();

}  // namespace metrics
}  // namespace multiclust

/// Hot-path instrumentation macro. `name` must be a string literal; the
/// registry lookup happens once per call site (function-local static).
#define MC_METRIC_COUNT(name, n)                         \
  do {                                                   \
    static ::multiclust::metrics::Counter& mc_counter_ = \
        ::multiclust::metrics::GetCounter(name);         \
    mc_counter_.Add(n);                                  \
  } while (false)

#endif  // MULTICLUST_COMMON_METRICS_H_
