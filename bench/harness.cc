#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/atomicio.h"
#include "common/parallel.h"
#include "common/report.h"
#include "linalg/kernels.h"

namespace multiclust {
namespace bench {

Harness::Harness(std::string id, std::string title)
    : id_(std::move(id)), title_(std::move(title)) {}

bool Harness::ParseArgs(int* argc, char** argv) {
  int out = 1;
  bool ok = true;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path_ = arg + 7;
      if (json_path_.empty()) {
        std::fprintf(stderr, "%s: --json needs a path\n", id_.c_str());
        exit_code_ = 2;
        ok = false;
      }
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick_ = true;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::printf(
          "%s — %s\n\n"
          "  --json=PATH  write the machine-readable result document\n"
          "  --quick      reduced-size workload (CI / baseline mode)\n"
          "Other flags are passed through to the binary.\n",
          id_.c_str(), title_.c_str());
      exit_code_ = 0;
      ok = false;
    } else {
      argv[out++] = argv[i];  // leave for the caller's own parser
    }
  }
  *argc = out;
  return ok;
}

void Harness::Scalar(const std::string& name, double value,
                     const ValueOptions& options) {
  for (ScalarResult& s : scalars_) {
    if (s.name == name) {
      s.value = value;
      s.options = options;
      return;
    }
  }
  scalars_.push_back({name, value, options});
}

void Harness::Timing(const std::string& name, double ms) {
  Scalar(name, ms, ValueOptions::Timing());
}

double Harness::ScalarValue(const std::string& name, double def) const {
  for (const ScalarResult& s : scalars_) {
    if (s.name == name) return s.value;
  }
  return def;
}

Series* Harness::AddSeries(const std::string& name, const std::string& x_name,
                           const std::string& y_name,
                           const ValueOptions& options) {
  series_.push_back(std::make_unique<Series>());
  Series& s = *series_.back();
  s.name_ = name;
  s.x_name_ = x_name;
  s.y_name_ = y_name;
  s.options_ = options;
  return &s;
}

Table* Harness::AddTable(const std::string& name,
                         const std::vector<std::string>& columns,
                         const ValueOptions& options) {
  tables_.push_back(std::make_unique<Table>());
  Table& t = *tables_.back();
  t.name_ = name;
  t.options_ = options;
  t.columns_ = columns;
  return &t;
}

void Harness::Check(const std::string& name, bool passed,
                    const std::string& detail) {
  checks_.push_back({name, passed, /*hard=*/true, detail});
}

void Harness::WarnCheck(const std::string& name, bool passed,
                        const std::string& detail) {
  checks_.push_back({name, passed, /*hard=*/false, detail});
}

std::string Harness::DocumentJson() const {
  json::Writer w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(1);
  w.Key("kind");
  w.String("multiclust.bench");
  w.Key("bench");
  w.String(id_);
  w.Key("title");
  w.String(title_);
  w.Key("quick");
  w.Bool(quick_);

  // Hardware context: timing numbers (and SIMD speedup ratios) are only
  // comparable between documents recorded on matching hosts; bench_diff
  // warns when these fields differ.
  {
    const kernels::SimdInfo simd = kernels::Info();
    w.Key("host");
    w.BeginObject();
    w.Key("logical_cores");
    w.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
    w.Key("threads");
    w.Int(static_cast<int64_t>(ThreadCount()));
    w.Key("isa");
    w.String(kernels::RuntimeIsa());
    w.Key("simd_backend");
    w.String(simd.backend);
    w.Key("simd_compiled");
    w.Bool(simd.compiled_simd);
    w.Key("double_lanes");
    w.Int(simd.double_lanes);
    w.EndObject();
  }

  // What this bench process cost, harness construction to here.
  // Wall-clock-dependent, so bench_diff never compares it.
  w.Key("resource");
  AppendResourceProfile(resource_scope_.Snapshot(), &w);

  w.Key("scalars");
  w.BeginArray();
  for (const ScalarResult& s : scalars_) {
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("value");
    w.Double(s.value);
    w.Key("unit");
    w.String(s.options.unit);
    w.Key("timing");
    w.Bool(s.options.timing);
    w.Key("tol_rel");
    w.Double(s.options.tol_rel);
    w.Key("tol_abs");
    w.Double(s.options.tol_abs);
    w.EndObject();
  }
  w.EndArray();

  w.Key("series");
  w.BeginArray();
  for (const auto& sp : series_) {
    const Series& s = *sp;
    w.BeginObject();
    w.Key("name");
    w.String(s.name_);
    w.Key("x_name");
    w.String(s.x_name_);
    w.Key("y_name");
    w.String(s.y_name_);
    w.Key("unit");
    w.String(s.options_.unit);
    w.Key("timing");
    w.Bool(s.options_.timing);
    w.Key("tol_rel");
    w.Double(s.options_.tol_rel);
    w.Key("tol_abs");
    w.Double(s.options_.tol_abs);
    w.Key("points");
    w.BeginArray();
    for (const auto& [x, y] : s.points_) {
      w.BeginArray();
      w.Double(x);
      w.Double(y);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("tables");
  w.BeginArray();
  for (const auto& tp : tables_) {
    const Table& t = *tp;
    w.BeginObject();
    w.Key("name");
    w.String(t.name_);
    w.Key("timing");
    w.Bool(t.options_.timing);
    w.Key("tol_rel");
    w.Double(t.options_.tol_rel);
    w.Key("tol_abs");
    w.Double(t.options_.tol_abs);
    w.Key("columns");
    w.BeginArray();
    for (const std::string& c : t.columns_) w.String(c);
    w.EndArray();
    w.Key("rows");
    w.BeginArray();
    for (const auto& row : t.rows_) {
      w.BeginArray();
      for (const Table::CellValue& cell : row) {
        if (cell.is_number) {
          w.Double(cell.number);
        } else {
          w.String(cell.text);
        }
      }
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("checks");
  w.BeginArray();
  for (const CheckResult& c : checks_) {
    w.BeginObject();
    w.Key("name");
    w.String(c.name);
    w.Key("passed");
    w.Bool(c.passed);
    w.Key("severity");
    w.String(c.hard ? "hard" : "warn");
    w.Key("detail");
    w.String(c.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string out = std::move(w).str();
  out += '\n';
  return out;
}

int Harness::Finish() {
  size_t hard_failed = 0, warn_failed = 0, passed = 0;
  for (const CheckResult& c : checks_) {
    if (c.passed) {
      ++passed;
    } else if (c.hard) {
      ++hard_failed;
    } else {
      ++warn_failed;
    }
  }
  if (!checks_.empty()) {
    std::printf("\n[harness] %s: %zu/%zu checks passed", id_.c_str(), passed,
                checks_.size());
    if (warn_failed > 0) {
      std::printf(" (%zu warn-only failures)", warn_failed);
    }
    std::printf("\n");
    for (const CheckResult& c : checks_) {
      if (!c.passed) {
        std::printf("[harness]   %s %s: %s\n", c.hard ? "FAIL" : "warn",
                    c.name.c_str(), c.detail.c_str());
      }
    }
  }
  if (!json_path_.empty()) {
    const Status st = atomicio::AtomicWritePath(json_path_, DocumentJson());
    if (!st.ok()) {
      std::fprintf(stderr, "[harness] %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("[harness] wrote %s\n", json_path_.c_str());
  }
  return hard_failed > 0 ? 1 : 0;
}

// --- Validation. ---

namespace {

Status Expect(bool ok, const std::string& what) {
  if (!ok) return Status::InvalidArgument("bench document: " + what);
  return Status::OK();
}

Status ValidateValueOptions(const json::Value& entry, const char* where) {
  MC_RETURN_IF_ERROR(Expect(entry.Find("timing") != nullptr &&
                                entry.Find("timing")->is_bool(),
                            std::string(where) + ": missing bool 'timing'"));
  MC_RETURN_IF_ERROR(Expect(entry.Find("tol_rel") != nullptr &&
                                entry.Find("tol_rel")->is_number(),
                            std::string(where) + ": missing 'tol_rel'"));
  MC_RETURN_IF_ERROR(Expect(entry.Find("tol_abs") != nullptr &&
                                entry.Find("tol_abs")->is_number(),
                            std::string(where) + ": missing 'tol_abs'"));
  return Status::OK();
}

}  // namespace

Status ValidateBenchDocument(const json::Value& doc) {
  MC_RETURN_IF_ERROR(Expect(doc.is_object(), "not an object"));
  MC_RETURN_IF_ERROR(
      Expect(doc.GetNumber("schema_version", 0) == 1, "schema_version != 1"));
  MC_RETURN_IF_ERROR(Expect(doc.GetString("kind", "") == "multiclust.bench",
                            "kind != multiclust.bench"));
  MC_RETURN_IF_ERROR(Expect(!doc.GetString("bench", "").empty(),
                            "missing 'bench' id"));
  MC_RETURN_IF_ERROR(Expect(doc.Find("quick") != nullptr &&
                                doc.Find("quick")->is_bool(),
                            "missing bool 'quick'"));
  // 'host' is optional (documents predating the hardware-context envelope
  // stay valid) but must be an object when present.
  if (const json::Value* host = doc.Find("host")) {
    MC_RETURN_IF_ERROR(Expect(host->is_object(), "'host' must be an object"));
  }
  // 'resource' is optional (documents from older builds may lack it) but
  // must be an object of numbers when present.
  if (const json::Value* resource = doc.Find("resource")) {
    MC_RETURN_IF_ERROR(
        Expect(resource->is_object(), "'resource' must be an object"));
    for (const auto& member : resource->object_items()) {
      MC_RETURN_IF_ERROR(Expect(member.second.is_number(),
                                "resource field '" + member.first +
                                    "' must be a number"));
    }
  }
  for (const char* section : {"scalars", "series", "tables", "checks"}) {
    const json::Value* v = doc.Find(section);
    MC_RETURN_IF_ERROR(Expect(v != nullptr && v->is_array(),
                              std::string("missing array '") + section + "'"));
  }
  for (const json::Value& s : doc.Find("scalars")->array_items()) {
    MC_RETURN_IF_ERROR(Expect(s.is_object() && !s.GetString("name", "").empty(),
                              "scalar without name"));
    const json::Value* value = s.Find("value");
    MC_RETURN_IF_ERROR(Expect(value != nullptr &&
                                  (value->is_number() || value->is_null()),
                              "scalar '" + s.GetString("name", "") +
                                  "': value must be number or null"));
    MC_RETURN_IF_ERROR(ValidateValueOptions(s, "scalar"));
  }
  for (const json::Value& s : doc.Find("series")->array_items()) {
    MC_RETURN_IF_ERROR(Expect(s.is_object() && !s.GetString("name", "").empty(),
                              "series without name"));
    MC_RETURN_IF_ERROR(ValidateValueOptions(s, "series"));
    const json::Value* points = s.Find("points");
    MC_RETURN_IF_ERROR(Expect(points != nullptr && points->is_array(),
                              "series '" + s.GetString("name", "") +
                                  "': missing points array"));
    for (const json::Value& p : points->array_items()) {
      MC_RETURN_IF_ERROR(Expect(p.is_array() && p.size() == 2,
                                "series '" + s.GetString("name", "") +
                                    "': point is not an [x,y] pair"));
    }
  }
  for (const json::Value& t : doc.Find("tables")->array_items()) {
    MC_RETURN_IF_ERROR(Expect(t.is_object() && !t.GetString("name", "").empty(),
                              "table without name"));
    const json::Value* columns = t.Find("columns");
    const json::Value* rows = t.Find("rows");
    MC_RETURN_IF_ERROR(Expect(columns != nullptr && columns->is_array() &&
                                  rows != nullptr && rows->is_array(),
                              "table '" + t.GetString("name", "") +
                                  "': missing columns/rows"));
    for (const json::Value& row : rows->array_items()) {
      MC_RETURN_IF_ERROR(Expect(row.is_array() &&
                                    row.size() == columns->size(),
                                "table '" + t.GetString("name", "") +
                                    "': row width != column count"));
    }
  }
  for (const json::Value& c : doc.Find("checks")->array_items()) {
    MC_RETURN_IF_ERROR(Expect(c.is_object() && !c.GetString("name", "").empty(),
                              "check without name"));
    MC_RETURN_IF_ERROR(Expect(c.Find("passed") != nullptr &&
                                  c.Find("passed")->is_bool(),
                              "check '" + c.GetString("name", "") +
                                  "': missing bool 'passed'"));
    const std::string severity = c.GetString("severity", "");
    MC_RETURN_IF_ERROR(Expect(severity == "hard" || severity == "warn",
                              "check '" + c.GetString("name", "") +
                                  "': severity must be hard|warn"));
  }
  return Status::OK();
}

Status ValidateSuiteDocument(const json::Value& doc) {
  MC_RETURN_IF_ERROR(Expect(doc.is_object(), "suite: not an object"));
  MC_RETURN_IF_ERROR(Expect(doc.GetNumber("schema_version", 0) == 1,
                            "suite: schema_version != 1"));
  MC_RETURN_IF_ERROR(
      Expect(doc.GetString("kind", "") == "multiclust.bench_suite",
             "suite: kind != multiclust.bench_suite"));
  const json::Value* benches = doc.Find("benches");
  MC_RETURN_IF_ERROR(Expect(benches != nullptr && benches->is_array(),
                            "suite: missing 'benches' array"));
  for (const json::Value& b : benches->array_items()) {
    MC_RETURN_IF_ERROR(ValidateBenchDocument(b));
  }
  return Status::OK();
}

std::string MergeSuiteJson(const std::vector<json::Value>& docs) {
  // Re-serialize each member document from its parsed form; sort by bench
  // id so the merged suite is independent of input order.
  struct Member {
    std::string id;
    std::string raw;
  };
  std::vector<Member> members;
  for (const json::Value& doc : docs) {
    json::Writer one;
    json::SerializeValue(doc, &one);
    members.push_back({doc.GetString("bench", ""), std::move(one).str()});
  }
  std::sort(members.begin(), members.end(),
            [](const Member& a, const Member& b) { return a.id < b.id; });
  json::Writer w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(1);
  w.Key("kind");
  w.String("multiclust.bench_suite");
  w.Key("benches");
  w.BeginArray();
  for (const Member& m : members) w.Raw(m.raw);
  w.EndArray();
  w.EndObject();
  std::string out = std::move(w).str();
  out += '\n';
  return out;
}

// --- Diff engine. ---

namespace {

const json::Value* FindByName(const json::Value& array,
                              const std::string& name) {
  if (!array.is_array()) return nullptr;
  for (const json::Value& entry : array.array_items()) {
    if (entry.GetString("name", "") == name) return &entry;
  }
  return nullptr;
}

bool WithinTolerance(double base, double cur, double tol_rel, double tol_abs) {
  if (std::isnan(base) && std::isnan(cur)) return true;
  const double diff = std::fabs(cur - base);
  return diff <= tol_abs + tol_rel * std::max(std::fabs(base),
                                              std::fabs(cur));
}

struct DiffContext {
  const DiffOptions* options;
  std::string prefix;  // "bench_x: "
  DiffReport* report;

  void Fail(const std::string& msg) {
    report->failures.push_back(prefix + msg);
  }
  void Warn(const std::string& msg) {
    report->warnings.push_back(prefix + msg);
  }
};

std::string Num(double v) { return json::FormatDouble(v); }

void DiffTimingValue(DiffContext* ctx, const std::string& what, double base,
                     double cur) {
  const DiffOptions& o = *ctx->options;
  if (base < o.timing_floor_ms && cur < o.timing_floor_ms) return;
  const double lo = base / o.timing_band;
  const double hi = base * o.timing_band;
  if (cur < lo || cur > hi) {
    ctx->Warn(what + ": timing drifted " + Num(base) + " -> " + Num(cur) +
              " ms (band x" + Num(o.timing_band) + "; warn-only)");
  }
  ++ctx->report->compared;
}

void DiffValue(DiffContext* ctx, const std::string& what, double base,
               double cur, double tol_rel, double tol_abs) {
  if (!WithinTolerance(base, cur, tol_rel, tol_abs)) {
    ctx->Fail(what + ": " + Num(base) + " -> " + Num(cur) +
              " (tol_rel=" + Num(tol_rel) + ", tol_abs=" + Num(tol_abs) + ")");
  }
  ++ctx->report->compared;
}

void DiffScalars(DiffContext* ctx, const json::Value& base,
                 const json::Value& cur) {
  const json::Value* base_list = base.Find("scalars");
  const json::Value* cur_list = cur.Find("scalars");
  for (const json::Value& b : base_list->array_items()) {
    const std::string name = b.GetString("name", "");
    const json::Value* c = FindByName(*cur_list, name);
    if (c == nullptr) {
      ctx->Fail("scalar '" + name + "' missing from current run");
      continue;
    }
    const bool timing = b.GetBool("timing", false);
    const double bv = b.GetNumber("value", NAN);
    const double cv = c->GetNumber("value", NAN);
    if (timing) {
      DiffTimingValue(ctx, "scalar '" + name + "'", bv, cv);
    } else {
      DiffValue(ctx, "scalar '" + name + "'", bv, cv,
                b.GetNumber("tol_rel", 0.0), b.GetNumber("tol_abs", 0.0));
    }
  }
  for (const json::Value& c : cur_list->array_items()) {
    const std::string name = c.GetString("name", "");
    if (FindByName(*base_list, name) == nullptr) {
      ctx->Warn("scalar '" + name + "' not in baseline (regenerate it)");
    }
  }
}

void DiffSeriesEntry(DiffContext* ctx, const json::Value& b,
                     const json::Value& c) {
  const std::string name = b.GetString("name", "");
  const bool timing = b.GetBool("timing", false);
  const double tol_rel = b.GetNumber("tol_rel", 0.0);
  const double tol_abs = b.GetNumber("tol_abs", 0.0);
  const auto& bp = b.Find("points")->array_items();
  const auto& cp = c.Find("points")->array_items();
  if (bp.size() != cp.size()) {
    const std::string msg = "series '" + name + "': point count " +
                            std::to_string(bp.size()) + " -> " +
                            std::to_string(cp.size());
    if (timing) {
      ctx->Warn(msg);
    } else {
      ctx->Fail(msg);
    }
    return;
  }
  for (size_t i = 0; i < bp.size(); ++i) {
    const double bx = bp[i].array_items()[0].NumberOr(NAN);
    const double cx = cp[i].array_items()[0].NumberOr(NAN);
    if (!WithinTolerance(bx, cx, tol_rel, tol_abs)) {
      ctx->Fail("series '" + name + "' point " + std::to_string(i) +
                ": x grid changed " + Num(bx) + " -> " + Num(cx));
      continue;
    }
    const double by = bp[i].array_items()[1].NumberOr(NAN);
    const double cy = cp[i].array_items()[1].NumberOr(NAN);
    const std::string what =
        "series '" + name + "' at x=" + Num(bx);
    if (timing) {
      DiffTimingValue(ctx, what, by, cy);
    } else {
      DiffValue(ctx, what, by, cy, tol_rel, tol_abs);
    }
  }
}

void DiffSeriesSection(DiffContext* ctx, const json::Value& base,
                       const json::Value& cur) {
  const json::Value* base_list = base.Find("series");
  const json::Value* cur_list = cur.Find("series");
  for (const json::Value& b : base_list->array_items()) {
    const std::string name = b.GetString("name", "");
    const json::Value* c = FindByName(*cur_list, name);
    if (c == nullptr) {
      ctx->Fail("series '" + name + "' missing from current run");
      continue;
    }
    DiffSeriesEntry(ctx, b, *c);
  }
  for (const json::Value& c : cur_list->array_items()) {
    if (FindByName(*base_list, c.GetString("name", "")) == nullptr) {
      ctx->Warn("series '" + c.GetString("name", "") +
                "' not in baseline (regenerate it)");
    }
  }
}

void DiffTables(DiffContext* ctx, const json::Value& base,
                const json::Value& cur) {
  const json::Value* base_list = base.Find("tables");
  const json::Value* cur_list = cur.Find("tables");
  for (const json::Value& b : base_list->array_items()) {
    const std::string name = b.GetString("name", "");
    const json::Value* c = FindByName(*cur_list, name);
    if (c == nullptr) {
      ctx->Fail("table '" + name + "' missing from current run");
      continue;
    }
    const bool timing = b.GetBool("timing", false);
    const double tol_rel = b.GetNumber("tol_rel", 0.0);
    const double tol_abs = b.GetNumber("tol_abs", 0.0);
    const auto& br = b.Find("rows")->array_items();
    const auto& cr = c->Find("rows")->array_items();
    if (br.size() != cr.size()) {
      ctx->Fail("table '" + name + "': row count " +
                std::to_string(br.size()) + " -> " +
                std::to_string(cr.size()));
      continue;
    }
    for (size_t r = 0; r < br.size(); ++r) {
      const auto& brow = br[r].array_items();
      const auto& crow = cr[r].array_items();
      if (brow.size() != crow.size()) {
        ctx->Fail("table '" + name + "' row " + std::to_string(r) +
                  ": width changed");
        continue;
      }
      for (size_t col = 0; col < brow.size(); ++col) {
        const std::string what = "table '" + name + "' cell [" +
                                 std::to_string(r) + "," +
                                 std::to_string(col) + "]";
        if (brow[col].is_string() || crow[col].is_string()) {
          if (!brow[col].is_string() || !crow[col].is_string() ||
              brow[col].string_value() != crow[col].string_value()) {
            ctx->Fail(what + ": text cell changed");
          }
          ++ctx->report->compared;
        } else if (timing) {
          DiffTimingValue(ctx, what, brow[col].NumberOr(NAN),
                          crow[col].NumberOr(NAN));
        } else {
          DiffValue(ctx, what, brow[col].NumberOr(NAN),
                    crow[col].NumberOr(NAN), tol_rel, tol_abs);
        }
      }
    }
  }
  for (const json::Value& c : cur_list->array_items()) {
    if (FindByName(*base_list, c.GetString("name", "")) == nullptr) {
      ctx->Warn("table '" + c.GetString("name", "") +
                "' not in baseline (regenerate it)");
    }
  }
}

void DiffChecks(DiffContext* ctx, const json::Value& base,
                const json::Value& cur) {
  const json::Value* base_list = base.Find("checks");
  const json::Value* cur_list = cur.Find("checks");
  for (const json::Value& c : cur_list->array_items()) {
    const std::string name = c.GetString("name", "");
    const bool hard = c.GetString("severity", "hard") == "hard";
    if (!c.GetBool("passed", false)) {
      const std::string msg =
          "check '" + name + "' failed: " + c.GetString("detail", "");
      if (hard) {
        ctx->Fail(msg);
      } else {
        ctx->Warn(msg + " (warn-only)");
      }
    }
    ++ctx->report->compared;
  }
  for (const json::Value& b : base_list->array_items()) {
    const std::string name = b.GetString("name", "");
    if (FindByName(*cur_list, name) == nullptr) {
      const std::string msg = "check '" + name + "' disappeared";
      if (b.GetString("severity", "hard") == "hard") {
        ctx->Fail(msg);
      } else {
        ctx->Warn(msg);
      }
    }
  }
}

// Warns (never fails) when the two documents were recorded on visibly
// different machines/configurations: wall-clock timings and speedup
// ratios are not comparable across hosts, and SIMD-backend differences
// change the bit patterns of lane-model reductions.
void DiffHost(DiffContext* ctx, const json::Value& base,
              const json::Value& cur) {
  const json::Value* bh = base.Find("host");
  const json::Value* ch = cur.Find("host");
  if (bh == nullptr || ch == nullptr) {
    if (bh != ch) {
      ctx->Warn(
          "host context present in only one document (timing comparison "
          "unreliable; regenerate the baseline)");
    }
    return;
  }
  const auto render = [](const json::Value* v) -> std::string {
    if (v == nullptr) return "<absent>";
    if (v->is_bool()) return v->bool_value() ? "true" : "false";
    if (v->is_number()) return Num(v->NumberOr(0.0));
    if (v->is_string()) return v->string_value();
    return "<other>";
  };
  for (const char* key :
       {"logical_cores", "threads", "isa", "simd_backend", "simd_compiled",
        "double_lanes"}) {
    const std::string bs = render(bh->Find(key));
    const std::string cs = render(ch->Find(key));
    if (bs != cs) {
      ctx->Warn(std::string("host mismatch: ") + key + " " + bs + " -> " +
                cs + " (timings/speedups not comparable across machines)");
    }
  }
}

}  // namespace

DiffReport DiffBenchDocuments(const json::Value& baseline,
                              const json::Value& current,
                              const DiffOptions& options) {
  DiffReport report;
  DiffContext ctx{&options, baseline.GetString("bench", "?") + ": ", &report};
  const Status base_valid = ValidateBenchDocument(baseline);
  if (!base_valid.ok()) {
    ctx.Fail("baseline invalid: " + base_valid.ToString());
    return report;
  }
  const Status cur_valid = ValidateBenchDocument(current);
  if (!cur_valid.ok()) {
    ctx.Fail("current invalid: " + cur_valid.ToString());
    return report;
  }
  DiffChecks(&ctx, baseline, current);
  DiffHost(&ctx, baseline, current);
  if (baseline.GetBool("quick", false) != current.GetBool("quick", false)) {
    ctx.Warn(
        "quick-mode mismatch between baseline and current: workloads "
        "differ by design, numeric comparison skipped");
    return report;
  }
  DiffScalars(&ctx, baseline, current);
  DiffSeriesSection(&ctx, baseline, current);
  DiffTables(&ctx, baseline, current);
  return report;
}

DiffReport DiffSuites(const json::Value& baseline, const json::Value& current,
                      const DiffOptions& options) {
  DiffReport report;
  DiffContext ctx{&options, "", &report};
  const Status base_valid = ValidateSuiteDocument(baseline);
  if (!base_valid.ok()) {
    ctx.Fail("baseline suite invalid: " + base_valid.ToString());
    return report;
  }
  const Status cur_valid = ValidateSuiteDocument(current);
  if (!cur_valid.ok()) {
    ctx.Fail("current suite invalid: " + cur_valid.ToString());
    return report;
  }
  const auto& base_benches = baseline.Find("benches")->array_items();
  const auto& cur_benches = current.Find("benches")->array_items();
  for (const json::Value& b : base_benches) {
    const std::string id = b.GetString("bench", "");
    const json::Value* c = nullptr;
    for (const json::Value& candidate : cur_benches) {
      if (candidate.GetString("bench", "") == id) c = &candidate;
    }
    if (c == nullptr) {
      report.failures.push_back("bench '" + id +
                                "' missing from current suite");
      continue;
    }
    const DiffReport one = DiffBenchDocuments(b, *c, options);
    report.failures.insert(report.failures.end(), one.failures.begin(),
                           one.failures.end());
    report.warnings.insert(report.warnings.end(), one.warnings.begin(),
                           one.warnings.end());
    report.compared += one.compared;
  }
  for (const json::Value& c : cur_benches) {
    const std::string id = c.GetString("bench", "");
    bool in_base = false;
    for (const json::Value& b : base_benches) {
      if (b.GetString("bench", "") == id) in_base = true;
    }
    if (!in_base) {
      report.warnings.push_back("bench '" + id +
                                "' not in baseline (regenerate it)");
    }
  }
  return report;
}

std::string DiffReport::ToString() const {
  std::string out;
  for (const std::string& f : failures) out += "FAIL  " + f + "\n";
  for (const std::string& w : warnings) out += "warn  " + w + "\n";
  out += "compared " + std::to_string(compared) + " values: " +
         std::to_string(failures.size()) + " regression(s), " +
         std::to_string(warnings.size()) + " warning(s)\n";
  return out;
}

}  // namespace bench
}  // namespace multiclust
