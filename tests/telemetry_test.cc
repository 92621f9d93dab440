// Telemetry-plane suite: live progress events (schema + streaming),
// per-run resource accounting, the span profile derived from trace events
// (self times and collapsed stacks), and the v2 report schema carrying
// ResourceProfile sections.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/json.h"
#include "common/profile.h"
#include "common/report.h"
#include "common/runguard.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "linalg/decomposition.h"
#include "linalg/kernels.h"
#include "metrics/clustering_quality.h"
#include "stats/hsic.h"
#include "support/json_reader.h"

namespace multiclust {
namespace {

Matrix TestData(uint64_t seed) {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  return MakeMultiView(120, views, 1, seed)->data();
}

// Collects every dispatched event in memory.
struct CollectingSink : telemetry::ProgressSink {
  void OnEvent(const telemetry::ProgressEvent& event) override {
    events.push_back(event);
  }
  std::vector<telemetry::ProgressEvent> events;
};

// RAII: sink installed for the test body, uninstalled before destruction.
struct SinkSession {
  explicit SinkSession(telemetry::ProgressSink* sink) {
    telemetry::SetProgressSink(sink);
  }
  ~SinkSession() { telemetry::SetProgressSink(nullptr); }
};

TEST(ProgressEventTest, JsonOmitsInapplicableFields) {
  telemetry::ProgressEvent event;
  event.stage = "kmeans";
  event.phase = "start";
  const std::string json = telemetry::ProgressEventJson(event, 1, 2.5);
  EXPECT_TRUE(test::IsValidJson(json)) << json;
  auto parsed = json::Parse(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("kind", ""), "multiclust.progress");
  EXPECT_EQ(parsed->GetNumber("schema_version", -1),
            telemetry::kProgressSchemaVersion);
  EXPECT_EQ(parsed->GetNumber("seq", -1), 1.0);
  EXPECT_EQ(parsed->GetNumber("elapsed_ms", -1), 2.5);
  EXPECT_EQ(parsed->GetString("stage", ""), "kmeans");
  EXPECT_EQ(parsed->GetString("phase", ""), "start");
  // Defaults mean "not applicable" and must be absent, not null/NaN.
  EXPECT_EQ(parsed->Find("restart"), nullptr);
  EXPECT_EQ(parsed->Find("iteration"), nullptr);
  EXPECT_EQ(parsed->Find("objective"), nullptr);
  EXPECT_EQ(parsed->Find("delta"), nullptr);
  EXPECT_EQ(parsed->Find("budget_remaining_ms"), nullptr);
  EXPECT_EQ(parsed->Find("eta_ms"), nullptr);
  EXPECT_EQ(parsed->Find("terminal"), nullptr);
}

TEST(ProgressEventTest, JsonCarriesAllFields) {
  telemetry::ProgressEvent event;
  event.stage = "gmm";
  event.phase = "iteration";
  event.restart = 2;
  event.iteration = 17;
  event.objective = -123.5;
  event.delta = 0.25;
  event.budget_remaining_ms = 900.0;
  event.eta_ms = 40.0;
  event.terminal = true;
  const std::string json = telemetry::ProgressEventJson(event, 9, 100.0);
  auto parsed = json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << json;
  EXPECT_EQ(parsed->GetNumber("restart", -1), 2.0);
  EXPECT_EQ(parsed->GetNumber("iteration", -1), 17.0);
  EXPECT_EQ(parsed->GetNumber("objective", 0), -123.5);
  EXPECT_EQ(parsed->GetNumber("delta", 0), 0.25);
  EXPECT_EQ(parsed->GetNumber("budget_remaining_ms", 0), 900.0);
  EXPECT_EQ(parsed->GetNumber("eta_ms", 0), 40.0);
  EXPECT_TRUE(parsed->GetBool("terminal", false));
}

TEST(ProgressStreamTest, RecorderStreamsIterationEvents) {
  CollectingSink sink;
  SinkSession session(&sink);
  ASSERT_TRUE(telemetry::ProgressEnabled());

  const Matrix data = TestData(11);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 7;
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  telemetry::EmitStage("run", "complete", /*terminal=*/true);

  ASSERT_FALSE(sink.events.empty());
  size_t iteration_events = 0;
  bool saw_eta = false;
  for (const telemetry::ProgressEvent& e : sink.events) {
    EXPECT_FALSE(e.stage.empty());
    if (e.phase == "iteration") {
      ++iteration_events;
      EXPECT_GE(e.iteration, 0);
      EXPECT_GE(e.restart, 0);
      if (!std::isnan(e.eta_ms)) saw_eta = true;
    }
  }
  // One event per recorded outer iteration, then the recorder's "end" and
  // the explicit terminal event.
  EXPECT_GT(iteration_events, 0u);
  EXPECT_TRUE(saw_eta) << "ETA should appear once cadence is established";
  EXPECT_TRUE(sink.events.back().terminal);
  EXPECT_EQ(sink.events.back().phase, "complete");

  // Uninstalled sink receives nothing.
  telemetry::SetProgressSink(nullptr);
  const size_t before = sink.events.size();
  telemetry::EmitStage("run", "start");
  EXPECT_EQ(sink.events.size(), before);
}

TEST(ProgressStreamTest, NdjsonSinkWritesValidStream) {
  const std::string path = ::testing::TempDir() + "telemetry_progress.ndjson";
  {
    telemetry::NdjsonProgressSink sink(std::fopen(path.c_str(), "w"),
                                       /*take_ownership=*/true);
    SinkSession session(&sink);
    telemetry::EmitStage("pipeline", "start");
    telemetry::ProgressEvent event;
    event.stage = "kmeans";
    event.phase = "iteration";
    event.iteration = 0;
    event.objective = 10.0;
    telemetry::EmitProgress(event);
    telemetry::EmitStage("run", "complete", /*terminal=*/true);
    EXPECT_EQ(sink.events_written(), 3u);
  }
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

  // Three lines, each a self-contained JSON object, seq strictly
  // increasing, last one terminal.
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < content.size()) {
    const size_t eol = content.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "stream must end with a newline";
    lines.push_back(content.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 3u) << content;
  double last_seq = 0.0;
  for (const std::string& line : lines) {
    auto parsed = json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed->GetString("kind", ""), "multiclust.progress");
    const double seq = parsed->GetNumber("seq", -1);
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
  auto last = json::Parse(lines.back());
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(last->GetBool("terminal", false));
}

TEST(ResourceProfileTest, ScopeCapturesMonotonicCounters) {
  telemetry::ResourceScope scope;
  Matrix a(64, 64);
  const telemetry::ResourceProfile first = scope.Snapshot();
  EXPECT_TRUE(first.captured);
  EXPECT_GE(first.alloc_count, 1u);
  EXPECT_GE(first.alloc_bytes, 64u * 64u * sizeof(double));

  // More work strictly grows the tallies; clocks never run backwards.
  Matrix b(128, 128);
  volatile double sink = 0.0;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  const telemetry::ResourceProfile second = scope.Snapshot();
  EXPECT_GT(second.wall_ms, first.wall_ms);
  EXPECT_GE(second.user_cpu_ms, first.user_cpu_ms);
  EXPECT_GE(second.system_cpu_ms, first.system_cpu_ms);
  EXPECT_GE(second.minor_faults, first.minor_faults);
  EXPECT_GE(second.major_faults, first.major_faults);
  EXPECT_GT(second.alloc_count, first.alloc_count);
  EXPECT_GE(second.alloc_bytes,
            first.alloc_bytes + 128u * 128u * sizeof(double));
  EXPECT_GE(second.flops, first.flops);
  EXPECT_GE(second.kernel_bytes, first.kernel_bytes);
  EXPECT_GT(second.peak_rss_kb, 0u);

  // A nested scope sees only its own window.
  telemetry::ResourceScope inner;
  const telemetry::ResourceProfile inner_view = inner.Snapshot();
  EXPECT_LT(inner_view.alloc_count, second.alloc_count);

  const std::string text = second.ToString();
  EXPECT_NE(text.find("wall"), std::string::npos) << text;
}

TEST(ResourceProfileTest, RunDiagnosticsCarryResource) {
  const Matrix data = TestData(13);
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 2;
  opts.seed = 7;
  RunDiagnostics diag;
  opts.diagnostics = &diag;
  ASSERT_TRUE(RunKMeans(data, opts).ok());
  EXPECT_TRUE(diag.resource.captured);
  EXPECT_GT(diag.resource.wall_ms, 0.0);
  EXPECT_GT(diag.resource.alloc_count, 0u);
  EXPECT_GT(diag.resource.flops, 0u) << "kernel hooks should have fired";
}

// ClusterDistanceSumsTile counts (3d + 1) flops per unordered pair of
// the tile for the shared distance and root (a diagonal tile's pair of a
// row with itself included), plus, per labelling, one add on each side
// for the other row's label (once for a row with itself), and the
// doubles, labels and slots of its rows, once per call.
TEST(ResourceProfileTest, ClusterDistanceSumsCountsExactFlops) {
  const size_t n = 10, d = 3;
  const std::vector<double> data(n * d, 0.5);
  const std::vector<int> first = {-1, 0, 1, 1, 0, -1, 0, -1, 1, 1};  // 7
  const std::vector<int> second = {0, 1, 2, 0, 1, 2, 0, 1, 2, -1};   // 9
  const int* labels[] = {first.data(), second.data()};
  const size_t ks[] = {2, 3};
  std::vector<double> acc(12 * 4 * 6, 0.0);
  // Each call touches 10 rows: their 3 coordinates, 6 slots, 2 labels.
  const size_t bytes =
      10u * (3u + 6u) * sizeof(double) + 2u * 10u * sizeof(int);
  {
    // The diagonal tile of all 10 rows: 55 pairs, 10 * (7 + 9) adds.
    telemetry::ResourceScope scope;
    kernels::ClusterDistanceSumsTile(data.data(), d, labels, ks, 2, 0, n, 0, n,
                                     acc.data());
    const telemetry::ResourceProfile p = scope.Snapshot();
    EXPECT_EQ(p.flops, 55u * (3u * 3u + 1u) + 10u * (7u + 9u));  // 710
    EXPECT_EQ(p.kernel_bytes, bytes);
  }
  {
    // Rows 0-3 against rows 4-9: 24 pairs. Labelled rows / cols: 3 / 4
    // under the first labelling, 4 / 5 under the second.
    telemetry::ResourceScope scope;
    kernels::ClusterDistanceSumsTile(data.data(), d, labels, ks, 2, 0, 4, 4, n,
                                     acc.data());
    const telemetry::ResourceProfile p = scope.Snapshot();
    EXPECT_EQ(p.flops, 24u * (3u * 3u + 1u) + (4u * 4u + 6u * 3u) +
                           (4u * 5u + 6u * 4u));  // 318
    EXPECT_EQ(p.kernel_bytes, bytes);
  }
}

// The row-lane assignment kernels count their work once per call: 3d
// flops per (row, centre) squared distance, 2d + 3 per norm-form
// distance, 3d per own-centre distance; bytes are each row's own doubles
// and label, so the tally does not depend on how rows are split.
TEST(ResourceProfileTest, RowLaneKernelsCountExactFlops) {
  const size_t count = 5, d = 3, k = 2;
  const std::vector<double> x(count * d, 0.5), centers(k * d, 0.25);
  const std::vector<double> x_norms(count, 0.75), c_norms(k, 0.1875);
  std::vector<int> labels(count, 0);
  std::vector<double> dist(count);
  {
    telemetry::ResourceScope scope;
    kernels::NearestSquaredRows(x.data(), count, centers.data(), k, d,
                                labels.data());
    const telemetry::ResourceProfile p = scope.Snapshot();
    EXPECT_EQ(p.flops, 5u * 2u * 3u * 3u);  // 90
    EXPECT_EQ(p.kernel_bytes, 5u * (3u * sizeof(double) + sizeof(int)));
  }
  {
    telemetry::ResourceScope scope;
    kernels::NearestNormFormRows(x.data(), count, centers.data(), k, d,
                                 x_norms.data(), c_norms.data(),
                                 labels.data());
    const telemetry::ResourceProfile p = scope.Snapshot();
    EXPECT_EQ(p.flops, 5u * 2u * (2u * 3u + 3u));  // 90
    EXPECT_EQ(p.kernel_bytes, 5u * (4u * sizeof(double) + sizeof(int)));
  }
  {
    telemetry::ResourceScope scope;
    kernels::AssignedSquaredDistances(x.data(), count, centers.data(),
                                      labels.data(), d, dist.data());
    const telemetry::ResourceProfile p = scope.Snapshot();
    EXPECT_EQ(p.flops, 5u * 3u * 3u);  // 45
    EXPECT_EQ(p.kernel_bytes, 5u * (7u * sizeof(double) + sizeof(int)));
  }
}

// Silhouette's tally is the kernel's over every tile: one distance and
// root per unordered pair of the n rows (noise included, each row with
// itself once), and, for each row, one add per non-noise row. A second
// labelling in the same Silhouettes pass adds only its own adds.
TEST(ResourceProfileTest, SilhouetteFlopsCoverEveryPair) {
  const Matrix data = TestData(14);  // 120 rows: one diagonal tile
  ASSERT_EQ(data.rows(), 120u);
  std::vector<int> labels(data.rows()), other(data.rows());
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = i % 10 == 0 ? -1 : static_cast<int>(i % 3);
    other[i] = static_cast<int>(i % 4);
  }
  const size_t pair = 3 * data.cols() + 1;
  {
    telemetry::ResourceScope scope;
    ASSERT_TRUE(Silhouette(data, labels).ok());
    EXPECT_EQ(scope.Snapshot().flops, 120u * 121u / 2u * pair + 120u * 108u);
  }
  {
    telemetry::ResourceScope scope;
    ASSERT_TRUE(Silhouettes(data, {labels, other}).ok());
    EXPECT_EQ(scope.Snapshot().flops,
              120u * 121u / 2u * pair + 120u * (108u + 120u));
  }
  {
    // 600 rows: six tiles of 256-row blocks add up to the same formula.
    std::vector<ViewSpec> views(2);
    views[0] = {2, 2, 12.0, 0.8, ""};
    views[1] = {2, 2, 8.0, 0.8, ""};
    const Matrix big = MakeMultiView(600, views, 1, 14)->data();
    std::vector<int> big_labels(big.rows());
    for (size_t i = 0; i < big_labels.size(); ++i) {
      big_labels[i] = i % 10 == 0 ? -1 : static_cast<int>(i % 3);
    }
    telemetry::ResourceScope scope;
    ASSERT_TRUE(Silhouette(big, big_labels).ok());
    EXPECT_EQ(scope.Snapshot().flops,
              600u * 601u / 2u * (3 * big.cols() + 1) + 600u * 540u);
  }
}

// The eigensolver's work is counted: every TopKEigen iteration multiplies
// the n x n affinity by the n x b block (2 n^2 b flops on the GEMM
// kernel), on top of the counted Gram-Schmidt, residual and Jacobi work.
TEST(ResourceProfileTest, SpectralFlopsCoverTheEigensolver) {
  std::vector<ViewSpec> views(2);
  views[0] = {3, 3, 8.0, 1.0, ""};
  views[1] = {3, 3, 8.0, 1.0, ""};
  const Matrix data = MakeMultiView(250, views, 0, 4)->data();
  const size_t n = data.rows(), k = 3, b = k + 8;
  const SymmetricEigen eig =
      TopKEigen(NormalizedAffinity(GaussianKernelMatrix(data, 0.0)), k)
          .value();
  ASSERT_GT(eig.iterations, 0u);
  SpectralOptions opts;
  opts.k = k;
  telemetry::ResourceScope scope;
  ASSERT_TRUE(RunSpectral(data, opts).ok());
  EXPECT_GE(scope.Snapshot().flops, 2 * n * n * b * eig.iterations);
}

// HsicMatrix counts its work exactly: each of the d Gram builds is n - 1
// SquaredDistanceRow calls over the tails (3 flops per pair in one column,
// count + 1 doubles each) and n - 1 GaussianFromSquared calls over the
// same tails (1 flop and 1 double per pair), then one tally for the trace
// phase: 3 flops per centred entry (n^2 per Gram) and 2 per trace product
// (n^2 per pair), one double each. The median gamma selects from the
// distances already written, so it counts exactly what a fixed gamma
// counts.
void ExpectHsicMatrixExactFlops(double gamma) {
  const size_t n = 10, d = 3, pairs = 3;
  Matrix data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < d; ++c) {
      data.at(i, c) = std::sin(static_cast<double>(i * (c + 2)));
    }
  }
  const size_t tail_pairs = n * (n - 1) / 2;  // 45
  telemetry::ResourceScope scope;
  ASSERT_TRUE(HsicMatrix(data, gamma).ok());
  const telemetry::ResourceProfile p = scope.Snapshot();
  EXPECT_EQ(p.flops, d * 4 * tail_pairs + n * n * (3 * d + 2 * pairs));
  EXPECT_EQ(p.kernel_bytes, (d * (2 * tail_pairs + (n - 1)) +
                             n * n * (3 * d + 2 * pairs)) *
                                sizeof(double));
}

TEST(ResourceProfileTest, HsicMatrixCountsExactFlops) {
  ExpectHsicMatrixExactFlops(0.5);
}

TEST(ResourceProfileTest, HsicMatrixMedianGammaCountsExactFlops) {
  ExpectHsicMatrixExactFlops(0.0);
}

// EigenSymmetric counts its rotations: at least one sweep of n(n-1)/2
// rotations, 18n flops each, on a dense matrix.
TEST(ResourceProfileTest, JacobiFlopsCoverTheRotations) {
  const size_t n = 12;
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a.at(i, j) = 1.0 / (1.0 + i + j);
  }
  telemetry::ResourceScope scope;
  ASSERT_TRUE(EigenSymmetric(a).ok());
  EXPECT_GE(scope.Snapshot().flops, n * (n - 1) / 2 * 18 * n);
}

// The span profile is derived from the buffered trace events: self times
// and collapsed-stack weights partition the root spans' durations, so
// every check below is an identity up to floating-point (or, for the
// integer µs weights, per-line) rounding — no timing threshold.
TEST(SpanProfileTest, SelfTimesAndCollapsedStacksPartitionRootSpans) {
  trace::Reset();
  trace::Enable();
  {
    MULTICLUST_TRACE_SPAN("telemetry.outer");
    for (int i = 0; i < 2; ++i) {
      MULTICLUST_TRACE_SPAN("telemetry.inner");
    }
  }
  {
    MULTICLUST_TRACE_SPAN("telemetry.sibling");
  }
  trace::Disable();

  std::map<std::string, trace::SpanStats> by_name;
  for (const trace::SpanStats& s : trace::Summary()) by_name[s.name] = s;
  ASSERT_EQ(by_name.size(), 3u);
  const trace::SpanStats& outer = by_name["telemetry.outer"];
  const trace::SpanStats& inner = by_name["telemetry.inner"];
  const trace::SpanStats& sibling = by_name["telemetry.sibling"];
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 2u);
  EXPECT_EQ(sibling.count, 1u);
  constexpr double kRoundingMs = 1e-9;
  EXPECT_NEAR(outer.self_ms + inner.total_ms, outer.total_ms, kRoundingMs);
  EXPECT_NEAR(inner.self_ms, inner.total_ms, kRoundingMs);
  EXPECT_NEAR(sibling.self_ms, sibling.total_ms, kRoundingMs);

  const std::string collapsed = trace::CollapsedStacks();
  EXPECT_NE(collapsed.find("telemetry.outer;telemetry.inner "),
            std::string::npos)
      << collapsed;
  std::vector<std::string> paths;
  double weight_sum_us = 0.0;
  size_t start = 0;
  while (start < collapsed.size()) {
    const size_t end = collapsed.find('\n', start);
    ASSERT_NE(end, std::string::npos) << "unterminated line: " << collapsed;
    const std::string line = collapsed.substr(start, end - start);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    paths.push_back(line.substr(0, space));
    weight_sum_us += std::stod(line.substr(space + 1));
    start = end + 1;
  }
  const std::vector<std::string> expected_paths = {
      "telemetry.outer", "telemetry.outer;telemetry.inner",
      "telemetry.sibling"};
  EXPECT_EQ(paths, expected_paths) << collapsed;
  // Each line's weight is rounded to whole µs: at most 0.5 µs off.
  const double roots_us = (outer.total_ms + sibling.total_ms) * 1000.0;
  EXPECT_NEAR(weight_sum_us, roots_us, 0.5 * static_cast<double>(paths.size()))
      << collapsed;
  trace::Reset();
}

// --- Report schema v2 ------------------------------------------------------

DiscoveryReport SmallReport(bool with_resource) {
  DiscoveryReport report;
  report.strategy_name = "dec-kmeans";
  report.chosen_k = 2;
  report.degraded = true;
  report.warnings = {"kmeans: reseeded empty cluster"};

  Clustering c;
  c.labels = {0, 0, 1, 1};
  c.algorithm = "kmeans";
  c.quality = 12.5;
  c.iterations = 4;
  c.converged = true;
  EXPECT_TRUE(report.solutions.Add(c).ok());
  c.labels = {0, 1, 0, 1};
  c.quality = 9.75;
  EXPECT_TRUE(report.solutions.Add(c).ok());

  report.objective.qualities = {0.5, 0.25};
  report.objective.mean_quality = 0.375;
  report.objective.mean_dissimilarity = 0.8;
  report.objective.min_dissimilarity = 0.8;
  report.objective.combined = 1.175;

  RunDiagnostics attempt;
  attempt.algorithm = "dec-kmeans";
  attempt.iterations = 4;
  attempt.converged = true;
  attempt.elapsed_ms = 1.5;
  attempt.warnings = {"dec-kmeans: note"};
  if (with_resource) {
    attempt.resource.captured = true;
    attempt.resource.wall_ms = 1.5;
    attempt.resource.alloc_count = 3;
    attempt.resource.alloc_bytes = 4096;
  }
  report.attempts.push_back(attempt);

  if (with_resource) {
    report.resource.captured = true;
    report.resource.wall_ms = 2.25;
    report.resource.user_cpu_ms = 2.0;
    report.resource.system_cpu_ms = 0.25;
    report.resource.peak_rss_kb = 10240;
    report.resource.minor_faults = 100;
    report.resource.major_faults = 1;
    report.resource.alloc_count = 5;
    report.resource.alloc_bytes = 8192;
    report.resource.flops = 123456;
    report.resource.kernel_bytes = 654321;
  }
  return report;
}

TEST(ReportV2Test, ResourceSurvivesRoundTrip) {
  const DiscoveryReport original = SmallReport(/*with_resource=*/true);
  const std::string json = DiscoveryReportJson(original, {});
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  EXPECT_NE(json.find("\"resource\""), std::string::npos);

  auto restored = ReadDiscoveryReportJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->strategy_name, original.strategy_name);
  EXPECT_EQ(restored->chosen_k, original.chosen_k);
  EXPECT_EQ(restored->degraded, original.degraded);
  EXPECT_EQ(restored->warnings, original.warnings);
  ASSERT_EQ(restored->solutions.size(), 2u);
  EXPECT_EQ(restored->solutions.at(0).labels, original.solutions.at(0).labels);
  EXPECT_EQ(restored->solutions.at(1).labels, original.solutions.at(1).labels);
  EXPECT_DOUBLE_EQ(restored->objective.combined, original.objective.combined);
  ASSERT_EQ(restored->attempts.size(), 1u);
  EXPECT_TRUE(restored->attempts[0].resource.captured);
  EXPECT_DOUBLE_EQ(restored->attempts[0].resource.wall_ms, 1.5);
  EXPECT_EQ(restored->attempts[0].resource.alloc_bytes, 4096u);

  EXPECT_TRUE(restored->resource.captured);
  EXPECT_DOUBLE_EQ(restored->resource.wall_ms, 2.25);
  EXPECT_EQ(restored->resource.peak_rss_kb, 10240u);
  EXPECT_EQ(restored->resource.flops, 123456u);
  EXPECT_EQ(restored->resource.kernel_bytes, 654321u);
}

TEST(ReportV2Test, UncapturedResourceStaysAbsent) {
  const DiscoveryReport original = SmallReport(/*with_resource=*/false);
  const std::string json = DiscoveryReportJson(original, {});
  EXPECT_EQ(json.find("\"resource\""), std::string::npos)
      << "uncaptured profiles must not serialize";
  auto restored = ReadDiscoveryReportJson(json);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_FALSE(restored->resource.captured);
  ASSERT_EQ(restored->attempts.size(), 1u);
  EXPECT_FALSE(restored->attempts[0].resource.captured);
}

TEST(ReportV2Test, ReadsV1Documents) {
  // A minimal hand-written v1 document (the PR-4 schema: no "resource"
  // members anywhere). Must keep parsing forever.
  const std::string v1 =
      "{\"schema_version\":1,\"kind\":\"multiclust.discovery_report\","
      "\"report\":{\"strategy\":\"dec-kmeans\",\"chosen_k\":2,"
      "\"degraded\":false,\"warnings\":[],"
      "\"solutions\":[{\"algorithm\":\"kmeans\",\"quality\":1.5,"
      "\"iterations\":3,\"converged\":true,\"labels\":[0,0,1,1]}],"
      "\"objective\":{\"qualities\":[0.5],\"mean_quality\":0.5,"
      "\"mean_dissimilarity\":0.0,\"min_dissimilarity\":0.0,"
      "\"combined\":0.5},"
      "\"attempts\":[{\"algorithm\":\"dec-kmeans\",\"iterations\":3,"
      "\"converged\":true,\"stop_reason\":\"converged\",\"retries\":0,"
      "\"elapsed_ms\":1.0,\"note\":\"\",\"warnings\":[]}]}}";
  auto restored = ReadDiscoveryReportJson(v1);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->strategy_name, "dec-kmeans");
  EXPECT_EQ(restored->chosen_k, 2u);
  ASSERT_EQ(restored->solutions.size(), 1u);
  EXPECT_EQ(restored->solutions.at(0).labels, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_FALSE(restored->resource.captured);
  ASSERT_EQ(restored->attempts.size(), 1u);
  EXPECT_FALSE(restored->attempts[0].resource.captured);
}

TEST(ReportV2Test, RejectsUnknownSchemaAndKind) {
  EXPECT_FALSE(ReadDiscoveryReportJson("not json").ok());
  EXPECT_FALSE(ReadDiscoveryReportJson("{\"schema_version\":99,"
                                       "\"kind\":\"multiclust.discovery_"
                                       "report\",\"report\":{}}")
                   .ok());
  EXPECT_FALSE(
      ReadDiscoveryReportJson(
          "{\"schema_version\":2,\"kind\":\"wrong\",\"report\":{}}")
          .ok());
}

TEST(ReportV2Test, PipelineReportCarriesResource) {
  const Matrix data = TestData(17);
  DiscoveryOptions options;
  options.k = 2;
  options.num_solutions = 2;
  options.seed = 3;
  auto report = DiscoverMultipleClusterings(data, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->resource.captured);
  EXPECT_GT(report->resource.wall_ms, 0.0);
  EXPECT_GT(report->resource.alloc_count, 0u);
  for (const RunDiagnostics& attempt : report->attempts) {
    EXPECT_TRUE(attempt.resource.captured);
  }
}

}  // namespace
}  // namespace multiclust
