#ifndef MULTICLUST_COMMON_METRICS_H_
#define MULTICLUST_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace multiclust {

/// Process-wide registry of named counters, gauges and fixed-bucket
/// histograms.
///
/// Naming follows the `<module>.<algo>.<event>` convention (see DESIGN.md
/// "Observability"), e.g. `cluster.kmeans.reseeds`. The registry is
/// lock-striped (a name is hashed to one of several independently locked
/// shards), registered metric objects are never deallocated, and every
/// update is a relaxed atomic — safe under the `ParallelFor` thread pool.
///
/// Determinism: counters and histogram bucket counts are integers updated
/// with commutative atomic adds, so for a fixed workload their totals are
/// bit-identical at any thread count. Histograms deliberately track only
/// integer bucket counts (no floating-point sum) to keep that guarantee.
///
/// Hot paths use the MC_METRIC_* macros, which cache the registry lookup
/// in a function-local static.
namespace metrics {

/// One row of a registry snapshot (SummaryString/Snapshot).
struct MetricRow {
  std::string name;
  std::string kind;   ///< "counter", "gauge" or "histogram"
  std::string value;  ///< rendered value (bucket list for histograms)
};

/// Monotonic integer counter.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins floating-point gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one implicit overflow bucket catches everything above the last bound.
/// Bounds are fixed at first registration — later GetHistogram calls with
/// the same name return the existing instance regardless of bounds.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket counts, length bounds().size() + 1 (last = overflow).
  std::vector<uint64_t> bucket_counts() const;
  /// HistogramQuantile() over the current bucket counts.
  double Quantile(double q) const;
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
};

/// Registry lookups. The returned references stay valid for the process
/// lifetime (Reset() zeroes values, it never deallocates a metric).
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds);

/// Zeroes every registered metric (registrations themselves are kept, so
/// cached references from the MC_METRIC_* macros stay valid).
void Reset();

/// All registered metrics, sorted by name (deterministic order).
std::vector<MetricRow> Snapshot();

/// Human-readable table of Snapshot().
std::string SummaryString();

/// Machine-readable registry dump: a JSON array sorted by name, with typed
/// values (counters as integers, gauges as round-trippable doubles,
/// histograms as bounds + bucket counts):
///   [{"name":"cluster.kmeans.iterations","kind":"counter","value":42},
///    {"name":"...","kind":"gauge","value":1.5},
///    {"name":"...","kind":"histogram",
///     "bounds":[1,10],"counts":[2,1,0],"total":3,
///     "p50":5.5,"p95":9.55,"p99":9.91}]
/// (p50/p95/p99 appear only for non-empty histograms.) Embedded verbatim
/// in the report artifact (common/report.h).
std::string MetricsJson();

/// Estimated q-quantile (q in [0, 1]) of a fixed-bucket histogram with
/// ascending inclusive upper `bounds` and `counts` of length
/// bounds.size() + 1 (last = overflow), by linear interpolation inside the
/// bucket holding rank q * total:
///   - the first bucket interpolates from min(0, bounds[0]) to bounds[0];
///   - the overflow bucket has no upper edge, so any quantile landing there
///     clamps to bounds.back();
///   - returns NaN for empty histograms, empty bounds, or mismatched sizes.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double q);

/// The registry rendered as OpenMetrics text exposition (the Prometheus
/// scrape format): `multiclust_`-prefixed sanitized names (`.` -> `_`),
/// counters with the `_total` suffix, histograms as cumulative
/// `_bucket{le="..."}` series plus `_count` and p50/p95/p99 gauges, ending
/// with the required `# EOF` line. This is the wire format a `discoverd`
/// scraper consumes (`discover_cli --metrics-out=PATH`).
std::string OpenMetricsText();

}  // namespace metrics
}  // namespace multiclust

/// Hot-path instrumentation macros. `name` must be a string literal; the
/// registry lookup happens once per call site (function-local static).
#define MC_METRIC_COUNT(name, n)                           \
  do {                                                     \
    static ::multiclust::metrics::Counter& mc_counter_ =   \
        ::multiclust::metrics::GetCounter(name);           \
    mc_counter_.Add(n);                                    \
  } while (false)
#define MC_METRIC_GAUGE_SET(name, v)                       \
  do {                                                     \
    static ::multiclust::metrics::Gauge& mc_gauge_ =       \
        ::multiclust::metrics::GetGauge(name);             \
    mc_gauge_.Set(v);                                      \
  } while (false)
#define MC_METRIC_OBSERVE(name, bounds, v)                 \
  do {                                                     \
    static ::multiclust::metrics::Histogram& mc_histo_ =   \
        ::multiclust::metrics::GetHistogram(name, bounds); \
    mc_histo_.Observe(v);                                  \
  } while (false)

#endif  // MULTICLUST_COMMON_METRICS_H_
