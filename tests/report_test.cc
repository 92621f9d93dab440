// Report/JSON suite: the dependency-free JSON layer (common/json.h), the
// versioned DiscoveryReport artifact (common/report.h) and the metrics
// export — every document this library writes must parse with its own
// strict reader and carry the schema envelope.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/report.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "support/json_reader.h"

namespace multiclust {
namespace {

Matrix ReportTestData() {
  std::vector<ViewSpec> views(2);
  views[0] = {2, 2, 12.0, 0.8, ""};
  views[1] = {2, 2, 8.0, 0.8, ""};
  return MakeMultiView(90, views, 0, 7)->data();
}

DiscoveryReport MakeReport() {
  DiscoveryOptions opts;
  opts.num_solutions = 2;
  opts.k = 2;
  opts.seed = 7;
  auto r = DiscoverMultipleClusterings(ReportTestData(), opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *std::move(r);
}

// --- JSON writer / parser fundamentals. ---

TEST(JsonTest, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::Escape("plain"), "plain");
  EXPECT_EQ(json::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, FormatDoubleRoundTripsExactly) {
  const double cases[] = {0.0,       1.0,       -1.0,      0.1,
                          1.0 / 3.0, 1e300,     5e-324,    123456.789,
                          -2.5e-7,   3.14159265358979323846};
  for (double v : cases) {
    const std::string s = json::FormatDouble(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(json::FormatDouble(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(json::FormatDouble(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonTest, WriterParserRoundTrip) {
  json::Writer w;
  w.BeginObject();
  w.Key("name");
  w.String("k\"mea\\ns\n");
  w.Key("values");
  w.BeginArray();
  w.Double(0.1);
  w.Int(-42);
  w.Bool(true);
  w.Null();
  w.BeginObject();
  w.Key("nested");
  w.Uint(1u << 30);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  const std::string doc = std::move(w).str();

  json::Value v = test::ParseJsonOrFail(doc);
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.GetString("name", ""), "k\"mea\\ns\n");
  const json::Value& values = test::FieldOrFail(v, "values");
  ASSERT_TRUE(values.is_array());
  ASSERT_EQ(values.size(), 5u);
  EXPECT_EQ(values.array_items()[0].number_value(), 0.1);
  EXPECT_EQ(values.array_items()[1].number_value(), -42.0);
  EXPECT_TRUE(values.array_items()[2].bool_value());
  EXPECT_TRUE(values.array_items()[3].is_null());
  EXPECT_EQ(values.array_items()[4].GetNumber("nested", 0),
            static_cast<double>(1u << 30));

  // Re-serialization is lossless for documents this library writes.
  json::Writer w2;
  json::SerializeValue(v, &w2);
  EXPECT_EQ(std::move(w2).str(), doc);
}

TEST(JsonTest, ParserAcceptsUnicodeEscapes) {
  json::Value v = test::ParseJsonOrFail("{\"s\":\"a\\u0041\\u00e9\"}");
  EXPECT_EQ(v.GetString("s", ""), "aA\xc3\xa9");
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  const char* bad[] = {"",          "{",          "[1,]",     "{\"a\":}",
                       "{\"a\" 1}", "tru",        "01",       "1 2",
                       "\"\\q\"",   "{\"a\":1,}", "[1 2]",    "nul",
                       "{1:2}",     "\"unterminated"};
  for (const char* doc : bad) {
    EXPECT_FALSE(json::Parse(doc).ok()) << doc;
  }
}

TEST(JsonTest, DuplicateKeysKeepTheLastValue) {
  json::Value v = test::ParseJsonOrFail("{\"a\":1,\"a\":2}");
  EXPECT_EQ(v.GetNumber("a", 0), 2.0);
}

// --- DiscoveryReport artifact. ---

TEST(ReportTest, DocumentCarriesSchemaEnvelope) {
  const DiscoveryReport report = MakeReport();
  json::Value doc = test::ParseJsonOrFail(DiscoveryReportJson(report));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.GetNumber("schema_version", 0), kReportSchemaVersion);
  EXPECT_EQ(doc.GetString("kind", ""), "multiclust.discovery_report");
  const json::Value& body = test::FieldOrFail(doc, "report");
  EXPECT_EQ(body.GetString("strategy", ""), report.strategy_name);
  EXPECT_EQ(body.GetNumber("chosen_k", 0),
            static_cast<double>(report.chosen_k));
  EXPECT_EQ(body.GetBool("degraded", true), report.degraded);
}

TEST(ReportTest, SolutionsAndObjectiveSurviveRoundTrip) {
  const DiscoveryReport report = MakeReport();
  json::Value doc = test::ParseJsonOrFail(DiscoveryReportJson(report));
  const json::Value& body = test::FieldOrFail(doc, "report");
  const json::Value& solutions = test::FieldOrFail(body, "solutions");
  ASSERT_TRUE(solutions.is_array());
  ASSERT_EQ(solutions.size(), report.solutions.size());
  for (size_t i = 0; i < report.solutions.size(); ++i) {
    const json::Value& s = solutions.array_items()[i];
    EXPECT_EQ(s.GetString("algorithm", ""), report.solutions.at(i).algorithm);
    EXPECT_EQ(s.GetNumber("quality", -99), report.solutions.at(i).quality);
    const json::Value& labels = test::FieldOrFail(s, "labels");
    ASSERT_EQ(labels.size(), report.solutions.at(i).labels.size());
    for (size_t j = 0; j < labels.size(); ++j) {
      EXPECT_EQ(labels.array_items()[j].number_value(),
                report.solutions.at(i).labels[j]);
    }
  }
  const json::Value& objective = test::FieldOrFail(body, "objective");
  EXPECT_EQ(objective.GetNumber("combined", -99), report.objective.combined);
  EXPECT_EQ(objective.GetNumber("mean_dissimilarity", -99),
            report.objective.mean_dissimilarity);
}

TEST(ReportTest, OptionsControlArtifactSize) {
  const DiscoveryReport report = MakeReport();
  ReportJsonOptions compact;
  compact.include_labels = false;
  compact.include_trace_points = false;
  compact.include_metrics = false;
  compact.include_spans = false;
  const std::string small = DiscoveryReportJson(report, compact);
  const std::string full = DiscoveryReportJson(report);
  EXPECT_LT(small.size(), full.size());
  json::Value doc = test::ParseJsonOrFail(small);
  const json::Value& body = test::FieldOrFail(doc, "report");
  const json::Value& solutions = test::FieldOrFail(body, "solutions");
  for (const json::Value& s : solutions.array_items()) {
    EXPECT_EQ(s.Find("labels"), nullptr);
  }
  // Attempt diagnostics stay; only the per-iteration points are dropped.
  const json::Value& attempts = test::FieldOrFail(body, "attempts");
  ASSERT_EQ(attempts.size(), report.attempts.size());
  for (const json::Value& a : attempts.array_items()) {
    const json::Value* trace = a.Find("trace");
    if (trace != nullptr) {
      EXPECT_EQ(trace->Find("points"), nullptr);
    }
  }
}

TEST(ReportTest, WriteDiscoveryReportProducesParseableFile) {
  const DiscoveryReport report = MakeReport();
  const std::string path = ::testing::TempDir() + "report_test_artifact.json";
  ASSERT_TRUE(WriteDiscoveryReport(path, report).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(content, DiscoveryReportJson(report));
  EXPECT_TRUE(test::IsValidJson(content));
}

// The report is published atomically: a write that fails part-way leaves
// the previous file byte-for-byte and no temp file behind.
TEST(ReportTest, FailedReportWriteKeepsThePreviousFile) {
  const std::string path = ::testing::TempDir() + "report_test_atomic.json";
  const std::string previous = "{\"previous\":true}\n";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << previous;
  }
  fault::Reset();
  FaultSpec spec;
  spec.site = "report";
  spec.kind = FaultKind::kIoShortWrite;
  fault::Arm(spec);
  const Status st = WriteDiscoveryReport(path, MakeReport());
  fault::Reset();
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(content, previous);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(ReportTest, MetricsJsonIsValid) {
  metrics::Reset();
  MC_METRIC_COUNT("report_test.count", 3);
  const std::string doc = metrics::MetricsJson();
  json::Value v = test::ParseJsonOrFail(doc);
  ASSERT_TRUE(v.is_array());
  bool found = false;
  for (const json::Value& m : v.array_items()) {
    if (m.GetString("name", "") == "report_test.count") found = true;
  }
  EXPECT_TRUE(found) << doc;
  metrics::Reset();
}

}  // namespace
}  // namespace multiclust
