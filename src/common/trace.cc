#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/atomicio.h"
#include "common/blackbox.h"
#include "common/json.h"

namespace multiclust {
namespace trace {

namespace {

// One completed span. `name` points at a string literal (see trace.h), so
// an event is 32 bytes and appending one never allocates beyond the
// buffer's own growth.
struct Event {
  const char* name;
  double ts_us;   // start, relative to the process trace epoch
  double dur_us;  // duration
  uint32_t tid;   // small stable per-thread id (1-based, creation order)
};

// Per-thread event buffer. The owning thread appends; the exporter reads.
// Both take `mu`, but the owner's lock is uncontended except during an
// export, so the append fast path stays a futex-free lock/unlock pair.
struct ThreadBuffer {
  std::mutex mu;
  uint32_t tid = 0;
  std::vector<Event> events;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  uint32_t next_tid = 1;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

std::atomic<bool> g_enabled{false};

// Per-thread buffer capacity (completed spans). 0 = unlimited.
std::atomic<size_t> g_max_events_per_thread{size_t{1} << 20};

// Spans dropped at full buffers, across all threads since the last Reset().
std::atomic<size_t> g_dropped_events{0};

// Microseconds since the process-wide trace epoch (first call).
double NowUs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    b->tid = registry.next_tid++;
    registry.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

// Snapshot of every buffered event, sorted by (tid, start) so exports are
// stable for a fixed set of recorded spans.
std::vector<Event> SnapshotEvents() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  std::vector<Event> events;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    events.insert(events.end(), buffer->events.begin(),
                  buffer->events.end());
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;  // parent spans before their children
  });
  return events;
}

constexpr size_t kNoParent = static_cast<size_t>(-1);

// One event placed in its thread's span tree: the innermost event that
// encloses it on the same thread (kNoParent for a root) and its self
// time, its duration minus its direct children's.
struct Placed {
  size_t parent;
  double self_us;
};

// Places SnapshotEvents() output, whose (tid, start, longest-first) order
// visits every parent before its children. Spans on one thread nest
// strictly (RAII scopes), so an event that starts before the innermost
// open span ends lies inside it.
std::vector<Placed> PlaceEvents(const std::vector<Event>& events) {
  std::vector<Placed> placed(events.size());
  std::vector<size_t> open;  // enclosing chain of the current event
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    while (!open.empty()) {
      const Event& top = events[open.back()];
      if (top.tid == e.tid && e.ts_us < top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    const size_t parent = open.empty() ? kNoParent : open.back();
    placed[i] = {parent, e.dur_us};
    if (parent != kNoParent) placed[parent].self_us -= e.dur_us;
    open.push_back(i);
  }
  return placed;
}

}  // namespace

void Enable() {
  NowUs();  // pin the epoch no later than the first enable
  g_enabled.store(true, std::memory_order_release);
}

void Disable() { g_enabled.store(false, std::memory_order_release); }

bool Enabled() { return g_enabled.load(std::memory_order_acquire); }

void Reset() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();  // keeps capacity: reset-per-run stays cheap
  }
  g_dropped_events.store(0, std::memory_order_relaxed);
}

size_t DroppedEvents() {
  return g_dropped_events.load(std::memory_order_relaxed);
}

void SetMaxEventsPerThread(size_t max_events) {
  g_max_events_per_thread.store(max_events, std::memory_order_relaxed);
}

size_t EventCount() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    buffers = registry.buffers;
  }
  size_t count = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    count += buffer->events.size();
  }
  return count;
}

std::vector<SpanStats> Summary() {
  const std::vector<Event> events = SnapshotEvents();
  const std::vector<Placed> placed = PlaceEvents(events);
  std::map<std::string, SpanStats> by_name;  // map: sorted, deterministic
  for (size_t i = 0; i < events.size(); ++i) {
    SpanStats& s = by_name[events[i].name];
    const double ms = events[i].dur_us / 1000.0;
    ++s.count;
    s.total_ms += ms;
    s.self_ms += placed[i].self_us / 1000.0;
    s.max_ms = std::max(s.max_ms, ms);
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, stats] : by_name) {
    stats.name = name;
    stats.mean_ms = stats.total_ms / static_cast<double>(stats.count);
    out.push_back(std::move(stats));
  }
  return out;
}

std::string SummaryString() {
  const std::vector<SpanStats> stats = Summary();
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-36s %8s %12s %12s %10s %10s\n",
                "span", "count", "total ms", "self ms", "mean ms", "max ms");
  out += line;
  for (const SpanStats& s : stats) {
    std::snprintf(line, sizeof(line),
                  "%-36s %8zu %12.3f %12.3f %10.4f %10.4f\n", s.name.c_str(),
                  s.count, s.total_ms, s.self_ms, s.mean_ms, s.max_ms);
    out += line;
  }
  if (stats.empty()) out += "(no spans recorded)\n";
  const size_t dropped = DroppedEvents();
  if (dropped > 0) {
    std::snprintf(line, sizeof(line),
                  "trace.dropped_events: %zu (per-thread buffer full)\n",
                  dropped);
    out += line;
  }
  return out;
}

std::string CollapsedStacks() {
  const std::vector<Event> events = SnapshotEvents();
  const std::vector<Placed> placed = PlaceEvents(events);
  // Self time per span path; each event keeps an iterator to its path's
  // node (map nodes are stable) so a child extends its parent's path.
  std::map<std::string, double> self_by_path;  // sorted by path
  std::vector<std::map<std::string, double>::iterator> path_of(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    std::string path;
    if (placed[i].parent != kNoParent) {
      path = path_of[placed[i].parent]->first + ';';
    }
    path += events[i].name;
    path_of[i] = self_by_path.try_emplace(std::move(path), 0.0).first;
    path_of[i]->second += placed[i].self_us;
  }
  std::string out;
  for (const auto& [path, self_us] : self_by_path) {
    char weight[32];
    std::snprintf(weight, sizeof(weight), " %lld\n", std::llround(self_us));
    out += path;
    out += weight;
  }
  return out;
}

std::string ChromeTraceJson() {
  const std::vector<Event> events = SnapshotEvents();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  {
    char meta[64];
    std::snprintf(meta, sizeof(meta), "\"trace.dropped_events\":%zu",
                  DroppedEvents());
    out += meta;
  }
  out += "},\"traceEvents\":[";
  char buf[128];
  bool first = true;
  for (const Event& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += json::Escape(e.name);
    out += "\",\"cat\":\"multiclust\",\"ph\":\"X\",\"pid\":1,";
    std::snprintf(buf, sizeof(buf), "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                  e.tid, e.ts_us, e.dur_us);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  atomicio::AtomicWriteOptions options;
  options.what = "trace";
  return atomicio::AtomicWritePath(path, ChromeTraceJson(), options);
}

Span::Span(const char* name) : name_(name) {
  // The flight recorder sees every span even while the tracer is off —
  // it is the always-on black box, the tracer is the opt-in profiler.
  blackbox::OnSpanEnter(name);
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  LocalBuffer();  // a thread's tid follows the order of its first open span
  start_us_ = NowUs();
}

Span::~Span() {
  blackbox::OnSpanExit(name_);
  if (!active_) return;
  const double end_us = NowUs();
  ThreadBuffer& buffer = LocalBuffer();
  const size_t cap = g_max_events_per_thread.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (cap != 0 && buffer.events.size() >= cap) {
    g_dropped_events.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events.push_back(
      {name_, start_us_, end_us - start_us_, buffer.tid});
}

}  // namespace trace
}  // namespace multiclust
