// Observability suite: span tracer, metrics registry, and the per-run
// ConvergenceTrace.
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "altspace/coala.h"
#include "altspace/dec_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "multiview/co_em.h"
#include "subspace/orclus.h"
#include "subspace/proclus.h"
#include "support/json_reader.h"

namespace multiclust {
namespace {

Matrix TestData(uint64_t seed) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  return MakeMultiView(120, views, 1, seed)->data();
}


// RAII: clean tracer + metrics state per test, disabled on exit so later
// tests are unaffected.
struct TraceSession {
  TraceSession() {
    trace::Reset();
    trace::Enable();
  }
  ~TraceSession() {
    trace::Disable();
    trace::Reset();
  }
};

TEST(TraceTest, SpanNestingAndSummary) {
  TraceSession session;
  {
    MULTICLUST_TRACE_SPAN("test.outer");
    for (int i = 0; i < 3; ++i) {
      MULTICLUST_TRACE_SPAN("test.inner");
    }
  }
  EXPECT_EQ(trace::EventCount(), 4u);
  const std::vector<trace::SpanStats> summary = trace::Summary();
  ASSERT_EQ(summary.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(summary[0].name, "test.inner");
  EXPECT_EQ(summary[0].count, 3u);
  EXPECT_EQ(summary[1].name, "test.outer");
  EXPECT_EQ(summary[1].count, 1u);
  // The outer span encloses the inner ones.
  EXPECT_GE(summary[1].max_ms, summary[0].max_ms);
  EXPECT_GE(summary[0].total_ms, 0.0);
  const std::string table = trace::SummaryString();
  EXPECT_NE(table.find("test.inner"), std::string::npos);
  EXPECT_NE(table.find("test.outer"), std::string::npos);
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  trace::Reset();
  trace::Disable();
  {
    MULTICLUST_TRACE_SPAN("test.dropped");
  }
  EXPECT_EQ(trace::EventCount(), 0u);
}

TEST(TraceTest, ThreadSafetyUnderParallelFor) {
  TraceSession session;
  SetThreadCount(4);
  std::vector<double> out(4096);
  ParallelFor(0, out.size(), 64, [&](size_t lo, size_t hi) {
    MULTICLUST_TRACE_SPAN("test.parallel_chunk");
    for (size_t i = lo; i < hi; ++i) out[i] = static_cast<double>(i);
  });
  SetThreadCount(0);
  // 4096 / 64 = 64 chunks, one span each, none lost.
  const std::vector<trace::SpanStats> summary = trace::Summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].name, "test.parallel_chunk");
  EXPECT_EQ(summary[0].count, 64u);
}

TEST(TraceTest, ChromeTraceJsonIsValid) {
  TraceSession session;
  {
    MULTICLUST_TRACE_SPAN("test.json \"quoted\"\\slash");
    MULTICLUST_TRACE_SPAN("test.json.nested");
  }
  const std::string json = trace::ChromeTraceJson();
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("test.json.nested"), std::string::npos);
  // The escaped quote must survive round-tripping into JSON.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceTest, WriteChromeTraceRoundTrip) {
  TraceSession session;
  {
    MULTICLUST_TRACE_SPAN("test.file_export");
  }
  const std::string path = ::testing::TempDir() + "trace_test_export.json";
  ASSERT_TRUE(trace::WriteChromeTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(content, trace::ChromeTraceJson());
  EXPECT_TRUE(test::IsValidJson(content));
}

TEST(TraceTest, WriteChromeTraceIntoMissingDirectoryFailsCleanly) {
  TraceSession session;
  {
    MULTICLUST_TRACE_SPAN("test.file_export");
  }
  const std::string dir = ::testing::TempDir() + "trace_test_missing_dir";
  const std::string path = dir + "/trace.json";
  const Status status = trace::WriteChromeTrace(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  struct stat st;
  EXPECT_NE(stat(path.c_str(), &st), 0) << "no file published";
  EXPECT_NE(stat((path + ".tmp").c_str(), &st), 0) << "no temp file leaked";
  EXPECT_NE(stat(dir.c_str(), &st), 0) << "no directory created";
}

TEST(MetricsTest2, CounterBasics) {
  metrics::Reset();
  MC_METRIC_COUNT("test.trace.counter", 2);
  MC_METRIC_COUNT("test.trace.counter", 3);
  EXPECT_EQ(metrics::GetCounter("test.trace.counter").value(), 5u);

  const std::string table = metrics::SummaryString();
  EXPECT_NE(table.find("test.trace.counter"), std::string::npos) << table;
  EXPECT_NE(table.find("counter    5\n"), std::string::npos) << table;

  metrics::Reset();
  EXPECT_EQ(metrics::GetCounter("test.trace.counter").value(), 0u);
}

TEST(TraceTest, DroppedEventsAreCountedAndSurfaced) {
  TraceSession session;
  trace::SetMaxEventsPerThread(4);
  for (int i = 0; i < 10; ++i) {
    MULTICLUST_TRACE_SPAN("test.drop");
  }
  // The first 4 land in the buffer, the remaining 6 are dropped but
  // counted — silent loss would make a truncated trace look complete.
  EXPECT_EQ(trace::EventCount(), 4u);
  EXPECT_EQ(trace::DroppedEvents(), 6u);
  const std::string summary = trace::SummaryString();
  EXPECT_NE(summary.find("trace.dropped_events: 6"), std::string::npos)
      << summary;
  const std::string json = trace::ChromeTraceJson();
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"trace.dropped_events\":6"), std::string::npos)
      << json;
  // Reset clears the counter and restores the default cap.
  trace::SetMaxEventsPerThread(size_t{1} << 20);
  trace::Reset();
  EXPECT_EQ(trace::DroppedEvents(), 0u);
  {
    MULTICLUST_TRACE_SPAN("test.drop.after_reset");
  }
  EXPECT_EQ(trace::EventCount(), 1u);
  EXPECT_EQ(trace::DroppedEvents(), 0u);
}

TEST(MetricsTest2, OpenMetricsTextWellFormed) {
  metrics::Reset();
  metrics::GetCounter("test.trace.om_counter").Add(7);
  const std::string text = metrics::OpenMetricsText();
  // Exposition envelope: ends with the OpenMetrics terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n") << text;
  // Names are prefixed and sanitized ('.' is not a legal name char).
  EXPECT_NE(text.find("# TYPE multiclust_test_trace_om_counter counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("multiclust_test_trace_om_counter_total 7"),
            std::string::npos)
      << text;
  metrics::Reset();
}

TEST(MetricsTest2, CounterTotalsThreadInvariant) {
  const Matrix data = TestData(41);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.seed = 7;
  std::vector<uint64_t> totals;
  for (const size_t threads : {1u, 4u}) {
    SetThreadCount(threads);
    metrics::Reset();
    ASSERT_TRUE(RunKMeans(data, opts).ok());
    totals.push_back(
        metrics::GetCounter("cluster.kmeans.iterations").value());
    SetThreadCount(0);
  }
  EXPECT_GT(totals[0], 0u);
  EXPECT_EQ(totals[0], totals[1]);
}

TEST(TraceTest, AlgorithmSpansAppearInTrace) {
  TraceSession session;
  const Matrix data = TestData(42);
  KMeansOptions opts;
  opts.k = 2;
  opts.seed = 7;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  const std::string json = trace::ChromeTraceJson();
  EXPECT_NE(json.find("cluster.kmeans.run"), std::string::npos);
  EXPECT_NE(json.find("cluster.kmeans.assign"), std::string::npos);
  EXPECT_NE(json.find("cluster.kmeans.update"), std::string::npos);
  EXPECT_TRUE(test::IsValidJson(json));
}

TEST(TraceTest, PipelineStagesAppearInTrace) {
  TraceSession session;
  const Matrix data = TestData(43);
  DiscoveryOptions opts;
  opts.num_solutions = 2;
  opts.k = 2;
  opts.seed = 7;
  ASSERT_TRUE(DiscoverMultipleClusterings(data, opts).ok());
  const std::string json = trace::ChromeTraceJson();
  EXPECT_NE(json.find("pipeline.run"), std::string::npos);
  EXPECT_NE(json.find("pipeline.strategy.dec-kmeans"), std::string::npos);
  EXPECT_NE(json.find("pipeline.dedup"), std::string::npos);
  EXPECT_NE(json.find("pipeline.objective"), std::string::npos);
  EXPECT_TRUE(test::IsValidJson(json));
}

// Every Silhouettes pass of an auto-k run is one metrics.silhouette span,
// nested directly under the stage that scored: one for all of select_k's
// candidates, one per solution in the objective.
TEST(TraceTest, SilhouetteSpansNestUnderScoringStages) {
  TraceSession session;
  const Matrix data = TestData(44);
  DiscoveryOptions opts;
  opts.num_solutions = 2;
  opts.k = 0;
  opts.max_k = 4;
  opts.seed = 7;
  auto report = DiscoverMultipleClusterings(data, opts);
  ASSERT_TRUE(report.ok());
  size_t spans = 0;
  for (const trace::SpanStats& s : trace::Summary()) {
    if (s.name == "metrics.silhouette") spans = s.count;
  }
  EXPECT_EQ(spans, 1 + report->solutions.size());
  const std::string stacks = trace::CollapsedStacks();
  size_t lines = 0;
  for (size_t at = 0; (at = stacks.find("metrics.silhouette", at)) !=
                      std::string::npos;
       ++at) {
    const size_t line_start = stacks.rfind('\n', at) + 1;  // npos + 1 == 0
    const std::string path = stacks.substr(line_start, at - line_start);
    EXPECT_TRUE(path == "pipeline.run;pipeline.select_k;" ||
                path == "pipeline.run;pipeline.objective;")
        << path;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// --- ConvergenceTrace: plain diagnostics data, independent of the
//     tracer. Every iterative algorithm must fill a non-empty trace when a
//     diagnostics sink is attached. ---

TEST(ConvergenceTraceTest, KMeans) {
  const Matrix data = TestData(50);
  RunDiagnostics diag;
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "kmeans");
  EXPECT_GT(diag.iterations, 0u);
  // SSE is non-increasing across iterations within one restart.
  const std::vector<ConvergencePoint>& pts = diag.trace.points;
  for (size_t i = 1; i < pts.size(); ++i) {
    if (pts[i].restart != pts[i - 1].restart) continue;
    EXPECT_LE(pts[i].objective, pts[i - 1].objective + 1e-9);
  }
  EXPECT_NE(diag.ToString().find("trace:"), std::string::npos);
}

TEST(ConvergenceTraceTest, Gmm) {
  const Matrix data = TestData(51);
  RunDiagnostics diag;
  GmmOptions opts;
  opts.k = 2;
  opts.restarts = 2;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(FitGmm(data, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "gmm");
  EXPECT_GT(diag.iterations, 0u);
}

TEST(ConvergenceTraceTest, Spectral) {
  const Matrix data = TestData(52);
  RunDiagnostics diag;
  SpectralOptions opts;
  opts.k = 2;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunSpectral(data, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "spectral");
}

TEST(ConvergenceTraceTest, DecKMeans) {
  const Matrix data = TestData(53);
  RunDiagnostics diag;
  DecKMeansOptions opts;
  opts.ks = {2, 2};
  opts.restarts = 2;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunDecorrelatedKMeans(data, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "dec-kmeans");
}

TEST(ConvergenceTraceTest, Coala) {
  const Matrix data = TestData(54);
  const std::vector<int> given(data.rows(), 0);
  RunDiagnostics diag;
  CoalaOptions opts;
  opts.k = 3;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunCoala(data, given, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "coala");
  EXPECT_TRUE(diag.converged);
}

TEST(ConvergenceTraceTest, CoEm) {
  const Matrix data = TestData(55);
  const Matrix v1 = data.SelectColumns({0, 1});
  const Matrix v2 = data.SelectColumns({2, 3});
  RunDiagnostics diag;
  CoEmOptions opts;
  opts.k = 2;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunCoEm(v1, v2, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "co-em");
}

TEST(ConvergenceTraceTest, Orclus) {
  const Matrix data = TestData(56);
  RunDiagnostics diag;
  OrclusOptions opts;
  opts.k = 2;
  opts.l = 2;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunOrclus(data, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "orclus");
}

TEST(ConvergenceTraceTest, Proclus) {
  const Matrix data = TestData(57);
  RunDiagnostics diag;
  ProclusOptions opts;
  opts.k = 3;
  opts.seed = 7;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunProclus(data, opts).ok());
  ASSERT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, "proclus");
}

TEST(ConvergenceTraceTest, PipelineAttemptsCarryTraces) {
  const Matrix data = TestData(58);
  DiscoveryOptions opts;
  opts.num_solutions = 2;
  opts.k = 2;
  opts.seed = 7;
  auto report = DiscoverMultipleClusterings(data, opts);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->attempts.empty());
  const RunDiagnostics& diag = report->attempts.back();
  EXPECT_FALSE(diag.trace.empty());
  EXPECT_EQ(diag.algorithm, report->strategy_name);
}

TEST(ConvergenceTraceTest, NullSinkRecordsNothing) {
  const Matrix data = TestData(59);
  KMeansOptions opts;
  opts.k = 2;
  opts.seed = 7;
  // diagnostics defaults to nullptr; the recorder must be inert.
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  RunDiagnostics diag;
  ConvergenceRecorder recorder(nullptr, nullptr);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(0, 0, 1.0, 0.5, 0);
  recorder.Finish("noop", 3, true);
  EXPECT_TRUE(diag.trace.empty());
}

}  // namespace
}  // namespace multiclust
