// Observability walkthrough: run the multi-clustering discovery pipeline
// with the span tracer armed, then
//   1. write a Chrome trace-event file (open chrome://tracing or
//      https://ui.perfetto.dev and load trace.json to see the span tree),
//   2. print the span summary table (wall-time per instrumented region),
//   3. print the metrics registry (iteration/reseed/restart counters),
//   4. print the per-attempt ConvergenceTrace that the pipeline collected.
//
// The span table's "self ms" column and `discover_cli --flamegraph` are
// derived from the same buffered events as the trace file, so the three
// views always agree.
//
// Build & run:  ./build/examples/trace_to_file [trace.json]
#include <cstdio>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "data/generators.h"

using namespace multiclust;

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "trace.json";

  // Two planted views: the same 200 objects cluster one way in dimensions
  // {0,1} and a genuinely different way in dimensions {2,3}.
  std::vector<ViewSpec> views(2);
  views[0] = {3, 2, 12.0, 0.8, "view-a"};
  views[1] = {2, 2, 9.0, 0.8, "view-b"};
  auto ds = MakeMultiView(200, views, /*noise_dims=*/1, /*seed=*/11);
  if (!ds.ok()) {
    std::printf("data generation failed: %s\n",
                ds.status().ToString().c_str());
    return 1;
  }

  trace::Enable();  // spans are dropped (cheaply) until this call

  DiscoveryOptions opts;
  opts.num_solutions = 2;
  opts.k = 0;  // auto-select via silhouette — shows up as pipeline.select_k
  opts.seed = 11;
  auto report = DiscoverMultipleClusterings(ds->data(), opts);
  if (!report.ok()) {
    std::printf("discovery failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("discovered %zu solutions with strategy %s (k = %zu)\n\n",
              report->solutions.size(), report->strategy_name.c_str(),
              report->chosen_k);

  // 1. Chrome trace export.
  Status written = trace::WriteChromeTrace(path);
  if (written.ok()) {
    std::printf("wrote %zu trace events to %s\n", trace::EventCount(), path);
    std::printf("open chrome://tracing (or https://ui.perfetto.dev) and "
                "load the file to inspect the span tree.\n\n");
  } else {
    std::printf("trace export failed: %s\n\n", written.ToString().c_str());
  }

  // 2. Span summary: where the wall-time went.
  std::printf("%s\n", trace::SummaryString().c_str());

  // 3. Metrics registry: how much work each algorithm did.
  std::printf("%s\n", metrics::SummaryString().c_str());

  // 4. Convergence telemetry (recorded whether or not the tracer is on).
  for (const RunDiagnostics& diag : report->attempts) {
    std::printf("attempt [%s]: %s\n", diag.algorithm.c_str(),
                diag.ToString().c_str());
  }

  trace::Disable();
  return 0;
}
