#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "common/json.h"

namespace multiclust {
namespace metrics {

namespace {

// Lock striping: a metric name hashes to one of kShards independently
// locked maps, so registrations (and the one-time lookups behind the
// MC_METRIC_* macro statics) from pool threads do not serialise on a
// single registry mutex. Updates themselves never touch a shard lock —
// they are relaxed atomics on the already-resolved metric object.
constexpr size_t kShards = 16;

struct Shard {
  std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms;
};

Shard* Shards() {
  static Shard* shards = new Shard[kShards];
  return shards;
}

Shard& ShardFor(const std::string& name) {
  return Shards()[std::hash<std::string>{}(name) % kShards];
}

// One registered metric with its typed value, read under its shard lock.
struct Entry {
  std::string name;
  enum Kind { kCounter, kGauge, kHistogram } kind;
  uint64_t count = 0;
  double gauge = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_counts;
};

// Every registered metric, sorted by name so each rendering is
// deterministic regardless of shard hashing.
std::vector<Entry> CollectEntries() {
  std::vector<Entry> entries;
  Shard* shards = Shards();
  for (size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards[s].mu);
    for (const auto& [name, c] : shards[s].counters) {
      entries.push_back({name, Entry::kCounter, c->value(), 0.0, {}, {}});
    }
    for (const auto& [name, g] : shards[s].gauges) {
      entries.push_back({name, Entry::kGauge, 0, g->value(), {}, {}});
    }
    for (const auto& [name, h] : shards[s].histograms) {
      entries.push_back({name, Entry::kHistogram, 0, 0.0, h->bounds(),
                         h->bucket_counts()});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  return entries;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t b = 0; b <= bounds_.size(); ++b) counts_[b].store(0);
}

void Histogram::Observe(double v) {
  // First bound >= v: bounds are inclusive upper edges; values above the
  // last bound land in the implicit overflow bucket at bounds_.size().
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t b = 0; b <= bounds_.size(); ++b) {
    out[b] = counts_[b].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Quantile(double q) const {
  return HistogramQuantile(bounds_, bucket_counts(), q);
}

void Histogram::Reset() {
  for (size_t b = 0; b <= bounds_.size(); ++b) {
    counts_[b].store(0, std::memory_order_relaxed);
  }
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& counts, double q) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  if (bounds.empty() || counts.size() != bounds.size() + 1) return kNan;
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return kNan;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (size_t b = 0; b < counts.size(); ++b) {
    const double prev = cum;
    cum += static_cast<double>(counts[b]);
    if (counts[b] == 0) continue;  // an empty bucket cannot hold the rank
    if (cum >= target) {
      if (b == counts.size() - 1) return bounds.back();  // overflow clamps
      const double lo = (b == 0) ? std::min(0.0, bounds[0]) : bounds[b - 1];
      const double hi = bounds[b];
      const double frac = std::clamp(
          (target - prev) / static_cast<double>(counts[b]), 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
  }
  return bounds.back();
}

Counter& GetCounter(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::unique_ptr<Counter>& slot = shard.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& GetGauge(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::unique_ptr<Gauge>& slot = shard.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& GetHistogram(const std::string& name,
                        const std::vector<double>& bounds) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::unique_ptr<Histogram>& slot = shard.histograms[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(bounds);
  return *slot;
}

void Reset() {
  Shard* shards = Shards();
  for (size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards[s].mu);
    for (auto& [name, c] : shards[s].counters) c->Reset();
    for (auto& [name, g] : shards[s].gauges) g->Reset();
    for (auto& [name, h] : shards[s].histograms) h->Reset();
  }
}

std::vector<MetricRow> Snapshot() {
  std::vector<MetricRow> rows;
  char buf[64];
  for (const Entry& e : CollectEntries()) {
    switch (e.kind) {
      case Entry::kCounter:
        rows.push_back({e.name, "counter", std::to_string(e.count)});
        break;
      case Entry::kGauge:
        std::snprintf(buf, sizeof(buf), "%g", e.gauge);
        rows.push_back({e.name, "gauge", buf});
        break;
      case Entry::kHistogram: {
        uint64_t total = 0;
        std::string counts;
        for (size_t b = 0; b < e.bucket_counts.size(); ++b) {
          if (b > 0) counts += ' ';
          counts += std::to_string(e.bucket_counts[b]);
          total += e.bucket_counts[b];
        }
        rows.push_back({e.name, "histogram",
                        std::to_string(total) + " obs [" + counts + "]"});
        break;
      }
    }
  }
  return rows;
}

std::string MetricsJson() {
  json::Writer w;
  w.BeginArray();
  for (const Entry& e : CollectEntries()) {
    w.BeginObject();
    w.Key("name");
    w.String(e.name);
    switch (e.kind) {
      case Entry::kCounter:
        w.Key("kind");
        w.String("counter");
        w.Key("value");
        w.Uint(e.count);
        break;
      case Entry::kGauge:
        w.Key("kind");
        w.String("gauge");
        w.Key("value");
        w.Double(e.gauge);
        break;
      case Entry::kHistogram: {
        w.Key("kind");
        w.String("histogram");
        w.Key("bounds");
        w.BeginArray();
        for (const double b : e.bounds) w.Double(b);
        w.EndArray();
        w.Key("counts");
        w.BeginArray();
        uint64_t total = 0;
        for (const uint64_t c : e.bucket_counts) {
          w.Uint(c);
          total += c;
        }
        w.EndArray();
        w.Key("total");
        w.Uint(total);
        if (total > 0 && !e.bounds.empty()) {
          w.Key("p50");
          w.Double(HistogramQuantile(e.bounds, e.bucket_counts, 0.50));
          w.Key("p95");
          w.Double(HistogramQuantile(e.bounds, e.bucket_counts, 0.95));
          w.Key("p99");
          w.Double(HistogramQuantile(e.bounds, e.bucket_counts, 0.99));
        }
        break;
      }
    }
    w.EndObject();
  }
  w.EndArray();
  return std::move(w).str();
}

namespace {

// OpenMetrics metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Our dotted
// `<module>.<algo>.<event>` names map to `multiclust_<module>_<algo>_...`.
std::string OpenMetricsName(const std::string& name) {
  std::string out = "multiclust_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendOpenMetricsDouble(double v, std::string* out) {
  char buf[48];
  if (std::isnan(v)) {
    std::snprintf(buf, sizeof(buf), "NaN");
  } else if (std::isinf(v)) {
    std::snprintf(buf, sizeof(buf), v > 0 ? "+Inf" : "-Inf");
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  *out += buf;
}

}  // namespace

std::string OpenMetricsText() {
  std::string out;
  char buf[96];
  for (const Entry& e : CollectEntries()) {
    const std::string name = OpenMetricsName(e.name);
    switch (e.kind) {
      case Entry::kCounter:
        out += "# TYPE " + name + " counter\n";
        std::snprintf(buf, sizeof(buf), "_total %llu\n",
                      static_cast<unsigned long long>(e.count));
        out += name + buf;
        break;
      case Entry::kGauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + " ";
        AppendOpenMetricsDouble(e.gauge, &out);
        out += '\n';
        break;
      case Entry::kHistogram: {
        out += "# TYPE " + name + " histogram\n";
        uint64_t cum = 0;
        for (size_t b = 0; b < e.bucket_counts.size(); ++b) {
          cum += e.bucket_counts[b];
          out += name + "_bucket{le=\"";
          if (b < e.bounds.size()) {
            AppendOpenMetricsDouble(e.bounds[b], &out);
          } else {
            out += "+Inf";
          }
          std::snprintf(buf, sizeof(buf), "\"} %llu\n",
                        static_cast<unsigned long long>(cum));
          out += buf;
        }
        std::snprintf(buf, sizeof(buf), "_count %llu\n",
                      static_cast<unsigned long long>(cum));
        out += name + buf;
        if (cum > 0 && !e.bounds.empty()) {
          const struct {
            const char* suffix;
            double q;
          } kQuantiles[] = {{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};
          for (const auto& [suffix, q] : kQuantiles) {
            out += "# TYPE " + name + suffix + " gauge\n";
            out += name + suffix + " ";
            AppendOpenMetricsDouble(
                HistogramQuantile(e.bounds, e.bucket_counts, q), &out);
            out += '\n';
          }
        }
        break;
      }
    }
  }
  out += "# EOF\n";
  return out;
}

std::string SummaryString() {
  const std::vector<MetricRow> rows = Snapshot();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-40s %-10s %s\n", "metric", "kind",
                "value");
  out += line;
  for (const MetricRow& row : rows) {
    std::snprintf(line, sizeof(line), "%-40s %-10s %s\n", row.name.c_str(),
                  row.kind.c_str(), row.value.c_str());
    out += line;
  }
  if (rows.empty()) out += "(no metrics registered)\n";
  return out;
}

}  // namespace metrics
}  // namespace multiclust
