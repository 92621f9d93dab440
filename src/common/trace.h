#ifndef MULTICLUST_COMMON_TRACE_H_
#define MULTICLUST_COMMON_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace multiclust {

/// Span-based tracer with a Chrome trace-event exporter.
///
/// Usage in library code (always through the macro, never the class):
///
///   void HotFunction() {
///     MULTICLUST_TRACE_SPAN("cluster.kmeans.assign");
///     ...  // scope timed; nested spans nest in the exported trace
///   }
///
/// Span names follow the `<module>.<algo>.<event>` convention (see
/// DESIGN.md "Observability") and MUST be string literals (or otherwise
/// have static storage duration): the tracer stores the pointer, not a
/// copy, so span construction never allocates.
///
/// Collection is off until `trace::Enable()`; a disabled span costs one
/// flight-recorder record (blackbox.h) plus one relaxed atomic load.
/// Completed spans are appended to per-thread buffers (safe under the
/// `ParallelFor` pool) and exported three ways, all derived from the same
/// buffered events: a `chrome://tracing` / Perfetto-loadable JSON
/// document, a per-span count/total/self/mean/max summary table, and
/// collapsed stacks for flame graphs.
namespace trace {

/// Aggregate statistics of one span name across all threads.
struct SpanStats {
  std::string name;
  size_t count = 0;
  double total_ms = 0.0;
  /// total_ms minus the time covered by the spans nested directly inside
  /// these ones on the same thread: self_ms + the direct children's
  /// durations == total_ms, up to floating-point rounding.
  double self_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

/// Starts collecting span events. Events recorded before Enable() (or
/// after Disable()) are dropped at the span, not buffered.
void Enable();

/// Stops collecting. Already-buffered events are kept for export.
void Disable();

/// True while collection is on.
bool Enabled();

/// Drops every buffered event (buffers keep their capacity, so a
/// Reset-per-run loop does not churn the allocator).
void Reset();

/// Number of completed spans currently buffered, across all threads.
size_t EventCount();

/// Completed spans dropped because a per-thread buffer hit its capacity
/// (SetMaxEventsPerThread). Dropped events are counted, never silently
/// lost: the total is surfaced here, in SummaryString() and in the
/// Chrome JSON "metadata" object ("trace.dropped_events"). Reset() zeroes
/// it along with the buffers.
size_t DroppedEvents();

/// Caps each per-thread event buffer at `max_events` completed spans
/// (default 1 << 20, ~32 MB/thread). 0 means unlimited. Spans recorded
/// past the cap are dropped and counted in DroppedEvents().
void SetMaxEventsPerThread(size_t max_events);

/// Per-span aggregates, sorted by span name (deterministic order).
std::vector<SpanStats> Summary();

/// Human-readable summary table of Summary().
std::string SummaryString();

/// The buffered events as collapsed stacks, the input format of
/// flamegraph.pl and speedscope: one line per distinct span path,
/// "outer;inner <self µs>", sorted by path. A path is the chain of spans
/// enclosing an event on its own thread (nesting by containment), so the
/// weights of all lines sum to the total duration of the root spans.
std::string CollapsedStacks();

/// The buffered events as a Chrome trace-event JSON document
/// (`{"traceEvents": [...]}`, "X" complete events, microsecond
/// timestamps). Loadable in chrome://tracing or https://ui.perfetto.dev.
std::string ChromeTraceJson();

/// Publishes ChromeTraceJson() at `path` through the shared atomic
/// writer (atomicio.h): a failure is kIoError and leaves no file behind.
Status WriteChromeTrace(const std::string& path);

/// RAII scope timer behind MULTICLUST_TRACE_SPAN. Feeds exactly two
/// sinks: the flight recorder ring, always, and the tracer buffer while
/// collection is on. `name` must have static storage duration (string
/// literal).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_us_ = 0.0;
  bool active_ = false;
};

}  // namespace trace
}  // namespace multiclust

#define MC_TRACE_CONCAT_INNER_(a, b) a##b
#define MC_TRACE_CONCAT_(a, b) MC_TRACE_CONCAT_INNER_(a, b)

/// Times the enclosing scope under `name` (a string literal,
/// `<module>.<algo>.<event>`).
#define MULTICLUST_TRACE_SPAN(name)          \
  ::multiclust::trace::Span MC_TRACE_CONCAT_( \
      mc_trace_span_, __LINE__) { (name) }

#endif  // MULTICLUST_COMMON_TRACE_H_
