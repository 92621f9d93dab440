// Bench-harness suite: document schema validation, suite merging and the
// bench_diff comparison engine — the regression gate must fail on real
// regressions (flipped hard checks, shifted deterministic metrics, missing
// entries) and stay quiet on timing drift.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "harness.h"
#include "support/json_reader.h"

namespace multiclust {
namespace {

using bench::DiffBenchDocuments;
using bench::DiffOptions;
using bench::DiffReport;
using bench::Harness;
using bench::ValueOptions;

// A representative harness document: one deterministic scalar, one timing
// scalar, a series, a table, a hard check and a warn check.
std::string MakeDocument(double metric, double timing_ms, bool check_passed) {
  Harness h("bench_unit", "unit-test bench");
  h.Scalar("recovery", metric, ValueOptions::Tolerance(1e-6));
  h.Timing("elapsed", timing_ms);
  bench::Series* s = h.AddSeries("sweep", "x", "y");
  s->Add(1.0, 10.0);
  s->Add(2.0, 20.0);
  bench::Table* t =
      h.AddTable("rows", {"name", "value"}, ValueOptions::Tolerance(1e-6));
  t->Row();
  t->TextCell("alpha");
  t->Cell(metric);
  h.Check("shape_holds", check_passed, "the qualitative claim");
  h.WarnCheck("speedy_enough", true, "host-dependent bar");
  return h.DocumentJson();
}

json::Value ParseDoc(const std::string& doc) {
  return test::ParseJsonOrFail(doc);
}

DiffReport Diff(const std::string& base, const std::string& cur) {
  return DiffBenchDocuments(ParseDoc(base), ParseDoc(cur), DiffOptions());
}

TEST(HarnessTest, DocumentValidatesAgainstSchema) {
  const std::string doc = MakeDocument(0.95, 12.5, true);
  json::Value v = ParseDoc(doc);
  EXPECT_TRUE(bench::ValidateBenchDocument(v).ok());
  EXPECT_EQ(v.GetNumber("schema_version", 0), 1.0);
  EXPECT_EQ(v.GetString("kind", ""), "multiclust.bench");
  EXPECT_EQ(v.GetString("bench", ""), "bench_unit");
}

TEST(HarnessTest, DocumentCarriesHostContext) {
  json::Value v = ParseDoc(MakeDocument(0.95, 12.5, true));
  const json::Value* host = v.Find("host");
  ASSERT_NE(host, nullptr);
  ASSERT_TRUE(host->is_object());
  EXPECT_GE(host->GetNumber("logical_cores", 0.0), 1.0);
  EXPECT_GE(host->GetNumber("threads", 0.0), 1.0);
  EXPECT_FALSE(host->GetString("isa", "").empty());
  EXPECT_FALSE(host->GetString("simd_backend", "").empty());
  EXPECT_EQ(host->GetNumber("double_lanes", 0.0), 4.0);
}

TEST(HarnessTest, HostMismatchWarnsButNeverFails) {
  // Rewrite the current document's host ISA: the diff must warn (timings
  // are not comparable across machines) without reporting a regression.
  std::string cur = MakeDocument(0.95, 12.5, true);
  const std::string base = MakeDocument(0.95, 12.5, true);
  json::Value v = ParseDoc(base);
  const std::string isa = v.Find("host")->GetString("isa", "");
  const std::string needle = "\"isa\":\"" + isa + "\"";
  const size_t pos = cur.find(needle);
  ASSERT_NE(pos, std::string::npos);
  cur.replace(pos, needle.size(), "\"isa\":\"other-machine\"");
  const DiffReport report = Diff(base, cur);
  EXPECT_FALSE(report.failed()) << report.ToString();
  bool warned = false;
  for (const std::string& w : report.warnings) {
    if (w.find("host mismatch") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned) << report.ToString();
}

TEST(HarnessTest, DocumentWithoutHostStillValidates) {
  // v1 documents (before the hardware-context envelope) have no 'host';
  // they must stay valid and diffable, with only a warning.
  std::string base = MakeDocument(0.95, 12.5, true);
  json::Value v = ParseDoc(base);
  ASSERT_NE(v.Find("host"), nullptr);
  const size_t start = base.find("\"host\":");
  ASSERT_NE(start, std::string::npos);
  // The host object has no nested objects: cut through its closing '},'.
  const size_t end = base.find("},", start);
  ASSERT_NE(end, std::string::npos);
  base.erase(start, end - start + 2);
  json::Value stripped = ParseDoc(base);
  EXPECT_EQ(stripped.Find("host"), nullptr);
  EXPECT_TRUE(bench::ValidateBenchDocument(stripped).ok());
  const DiffReport report = Diff(base, MakeDocument(0.95, 12.5, true));
  EXPECT_FALSE(report.failed()) << report.ToString();
}

TEST(HarnessTest, ValidatorRejectsMangledDocuments) {
  // Wrong kind.
  EXPECT_FALSE(bench::ValidateBenchDocument(
                   ParseDoc("{\"schema_version\":1,\"kind\":\"other\"}"))
                   .ok());
  // A scalar with a string value.
  const char* bad =
      "{\"schema_version\":1,\"kind\":\"multiclust.bench\","
      "\"bench\":\"b\",\"title\":\"t\",\"quick\":false,"
      "\"scalars\":[{\"name\":\"x\",\"value\":\"oops\"}],"
      "\"series\":[],\"tables\":[],\"checks\":[]}";
  EXPECT_FALSE(bench::ValidateBenchDocument(ParseDoc(bad)).ok());
}

TEST(HarnessTest, ScalarRegistrationOverwritesByName) {
  Harness h("bench_unit", "t");
  h.Scalar("m", 1.0);
  h.Scalar("m", 2.0);
  EXPECT_EQ(h.ScalarValue("m", 0.0), 2.0);
  EXPECT_EQ(h.ScalarValue("absent", -1.0), -1.0);
}

TEST(HarnessTest, SeriesAndTablePointersSurviveLaterRegistrations) {
  Harness h("bench_unit", "t");
  std::vector<bench::Series*> series;
  for (int i = 0; i < 16; ++i) {
    std::string name = "s";  // appended: `"s" + ...` warns -Wrestrict
    name += std::to_string(i);
    series.push_back(h.AddSeries(name, "x", "y"));
  }
  // Writing through the first pointer after 15 further registrations used
  // to be a use-after-free (vector reallocation).
  series[0]->Add(1.0, 2.0);
  EXPECT_EQ(series[0]->size(), 1u);
  EXPECT_TRUE(bench::ValidateBenchDocument(ParseDoc(h.DocumentJson())).ok());
}

TEST(HarnessTest, IdenticalDocumentsDiffClean) {
  const std::string doc = MakeDocument(0.95, 12.5, true);
  const DiffReport report = Diff(doc, doc);
  EXPECT_FALSE(report.failed()) << report.ToString();
  EXPECT_TRUE(report.failures.empty());
}

TEST(HarnessTest, FlippedHardCheckIsARegression) {
  const DiffReport report =
      Diff(MakeDocument(0.95, 12.5, true), MakeDocument(0.95, 12.5, false));
  EXPECT_TRUE(report.failed());
}

TEST(HarnessTest, DeterministicScalarDriftIsARegression) {
  const DiffReport report =
      Diff(MakeDocument(0.95, 12.5, true), MakeDocument(0.80, 12.5, true));
  EXPECT_TRUE(report.failed());
}

TEST(HarnessTest, WithinToleranceDriftPasses) {
  const DiffReport report =
      Diff(MakeDocument(0.95, 12.5, true),
           MakeDocument(0.95 + 1e-8, 12.5, true));
  EXPECT_FALSE(report.failed()) << report.ToString();
}

TEST(HarnessTest, TimingDriftOnlyWarns) {
  // 10x slower: far outside the 3x band, still only a warning.
  const DiffReport report =
      Diff(MakeDocument(0.95, 12.5, true), MakeDocument(0.95, 125.0, true));
  EXPECT_FALSE(report.failed()) << report.ToString();
  EXPECT_FALSE(report.warnings.empty());
}

TEST(HarnessTest, MissingScalarIsARegression) {
  Harness h("bench_unit", "unit-test bench");
  h.Timing("elapsed", 12.5);
  const DiffReport report =
      Diff(MakeDocument(0.95, 12.5, true), h.DocumentJson());
  EXPECT_TRUE(report.failed());
}

TEST(HarnessTest, MergedSuiteValidatesAndDiffs) {
  std::vector<json::Value> docs;
  docs.push_back(ParseDoc(MakeDocument(0.95, 12.5, true)));
  const std::string suite = bench::MergeSuiteJson(docs);
  json::Value v = ParseDoc(suite);
  EXPECT_TRUE(bench::ValidateSuiteDocument(v).ok());
  const DiffReport clean = bench::DiffSuites(v, v, DiffOptions());
  EXPECT_FALSE(clean.failed());

  std::vector<json::Value> regressed;
  regressed.push_back(ParseDoc(MakeDocument(0.95, 12.5, false)));
  const DiffReport bad = bench::DiffSuites(
      v, ParseDoc(bench::MergeSuiteJson(regressed)), DiffOptions());
  EXPECT_TRUE(bad.failed());
}

TEST(HarnessTest, QuickFlagMismatchComparesChecksOnly) {
  Harness quick("bench_unit", "unit-test bench");
  // Simulate --quick by building a doc whose quick flag differs: parse and
  // flip is simpler than plumbing argv, so go through ParseArgs.
  int argc = 2;
  char arg0[] = "bench_unit";
  char arg1[] = "--quick";
  char* argv[] = {arg0, arg1, nullptr};
  ASSERT_TRUE(quick.ParseArgs(&argc, argv));
  ASSERT_TRUE(quick.quick());
  quick.Scalar("recovery", 0.5, ValueOptions::Tolerance(1e-6));
  quick.Check("shape_holds", true, "the qualitative claim");
  // Deterministic scalar differs wildly (different workload) but the
  // checks agree: not a regression across quick/full modes.
  const DiffReport report = DiffBenchDocuments(
      ParseDoc(MakeDocument(0.95, 12.5, true)), ParseDoc(quick.DocumentJson()),
      DiffOptions());
  EXPECT_FALSE(report.failed()) << report.ToString();
}

TEST(HarnessTest, ParseArgsCompactsArgvAndKeepsUnknownFlags) {
  Harness h("bench_unit", "t");
  int argc = 4;
  char arg0[] = "bench_unit";
  char arg1[] = "--quick";
  char arg2[] = "--benchmark_filter=BM_KMeans";
  char arg3[] = "--json=/tmp/harness_test_unused.json";
  char* argv[] = {arg0, arg1, arg2, arg3, nullptr};
  ASSERT_TRUE(h.ParseArgs(&argc, argv));
  EXPECT_TRUE(h.quick());
  EXPECT_EQ(h.json_path(), "/tmp/harness_test_unused.json");
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench_unit");
  EXPECT_STREQ(argv[1], "--benchmark_filter=BM_KMeans");
}

}  // namespace
}  // namespace multiclust
