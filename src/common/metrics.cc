#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"

namespace multiclust {
namespace metrics {

namespace {

// Lock striping: a counter name hashes to one of kShards independently
// locked maps, so registrations (and the one-time lookups behind the
// MC_METRIC_COUNT statics) from pool threads do not serialise on a single
// registry mutex. Updates themselves never touch a shard lock — they are
// relaxed atomics on the already-resolved counter.
constexpr size_t kShards = 16;

struct Shard {
  std::mutex mu;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters;
};

Shard* Shards() {
  static Shard* shards = new Shard[kShards];
  return shards;
}

Shard& ShardFor(const std::string& name) {
  return Shards()[std::hash<std::string>{}(name) % kShards];
}

// Every registered counter as (name, value), sorted by name so each
// rendering is deterministic regardless of shard hashing.
std::vector<std::pair<std::string, uint64_t>> CollectCounters() {
  std::vector<std::pair<std::string, uint64_t>> entries;
  Shard* shards = Shards();
  for (size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards[s].mu);
    for (const auto& [name, c] : shards[s].counters) {
      entries.emplace_back(name, c->value());
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

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

}  // namespace

Counter& GetCounter(const std::string& name) {
  Shard& shard = ShardFor(name);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::unique_ptr<Counter>& slot = shard.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

void Reset() {
  Shard* shards = Shards();
  for (size_t s = 0; s < kShards; ++s) {
    std::lock_guard<std::mutex> lock(shards[s].mu);
    for (auto& [name, c] : shards[s].counters) c->Reset();
  }
}

std::string MetricsJson() {
  json::Writer w;
  w.BeginArray();
  for (const auto& [name, value] : CollectCounters()) {
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("kind");
    w.String("counter");
    w.Key("value");
    w.Uint(value);
    w.EndObject();
  }
  w.EndArray();
  return std::move(w).str();
}

std::string OpenMetricsText() {
  std::string out;
  char buf[48];
  for (const auto& [name, value] : CollectCounters()) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " counter\n";
    std::snprintf(buf, sizeof(buf), "_total %llu\n",
                  static_cast<unsigned long long>(value));
    out += om + buf;
  }
  out += "# EOF\n";
  return out;
}

std::string SummaryString() {
  const auto entries = CollectCounters();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-40s %-10s %s\n", "metric", "kind",
                "value");
  out += line;
  for (const auto& [name, value] : entries) {
    std::snprintf(line, sizeof(line), "%-40s %-10s %s\n", name.c_str(),
                  "counter", std::to_string(value).c_str());
    out += line;
  }
  if (entries.empty()) out += "(no metrics registered)\n";
  return out;
}

}  // namespace metrics
}  // namespace multiclust
