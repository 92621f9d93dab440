// bench_diff — compare, validate and merge bench harness JSON documents.
//
//   bench_diff BASELINE CURRENT [--timing-band=F] [--timing-floor-ms=M]
//       Compares two snapshots (per-bench or merged suite documents;
//       detected from the "kind" field). Exits 1 on regression: failed
//       hard checks, missing metrics, or non-timing values outside their
//       recorded tolerance band. Timing drift only warns.
//
//   bench_diff --validate FILE...
//       Schema-validates each document; exits 1 on the first invalid one.
//
//   bench_diff --merge -o OUT FILE...
//       Merges per-bench documents into one suite document at OUT.
//
//   bench_diff --report BASELINE CURRENT
//       Compares two discovery-report JSONs (discover_cli output) for
//       bit-identical results, ignoring wall-clock fields (elapsed_ms,
//       budget_remaining_ms, metrics, spans, resource) at any nesting
//       depth. Used by the CI kill/resume soak job to check that a
//       crashed-and-resumed run reproduces the uninterrupted baseline
//       exactly.
//
//   bench_diff --validate-progress FILE...
//       Schema-validates `multiclust.progress` NDJSON streams written by
//       `discover_cli --progress=...` or streamed by discoverd (lines
//       tagged with a "job" member are checked per job: monotonic
//       seq/elapsed and exactly one terminal event each); exits 1 on the
//       first invalid one.
//
//   bench_diff --validate-openmetrics FILE...
//       Structurally validates OpenMetrics expositions written by
//       `discover_cli --metrics-out=...`; exits 1 on the first invalid one.
//
//   bench_diff --validate-crash-report FILE...
//       Schema-validates `multiclust.crash_report` documents written by
//       the crash handler (`discover_cli --crash-report=...`) or as chaos
//       flight-record dumps; exits 1 on the first invalid one.
//
// The committed BENCH_baseline.json is a merged --quick suite; regenerate
// it with the loop in EXPERIMENTS.md when results change intentionally.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/atomicio.h"
#include "common/json.h"
#include "common/report.h"
#include "common/result.h"
#include "harness.h"

namespace {

using multiclust::Result;
using multiclust::Status;
using multiclust::bench::DiffOptions;
using multiclust::bench::DiffReport;

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "'");
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on '" + path + "'");
  return out;
}

Result<multiclust::json::Value> LoadJson(const std::string& path) {
  auto content = ReadFile(path);
  if (!content.ok()) return content.status();
  auto parsed = multiclust::json::Parse(*content);
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().ToString());
  }
  return parsed;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff BASELINE CURRENT [--timing-band=F] "
               "[--timing-floor-ms=M]\n"
               "       bench_diff --validate FILE...\n"
               "       bench_diff --merge -o OUT FILE...\n"
               "       bench_diff --report BASELINE CURRENT\n"
               "       bench_diff --validate-progress FILE...\n"
               "       bench_diff --validate-openmetrics FILE...\n"
               "       bench_diff --validate-crash-report FILE...\n");
  return 2;
}

// Keys whose values depend on wall-clock time or host load and therefore
// cannot be bit-identical across a crash/resume pair. "resource" is the
// schema-v2 ResourceProfile: all timing/RSS/fault counts, and the resumed
// half of a crash/resume pair legitimately did less work.
bool IsWallClockKey(const std::string& key) {
  return key == "elapsed_ms" || key == "budget_remaining_ms" ||
         key == "metrics" || key == "spans" || key == "resource";
}

/// Recursive equality over report values, skipping wall-clock keys.
/// NaN == NaN (quality fields can legitimately be NaN on degenerate
/// clusterings, and bit-identical resume must reproduce that too).
/// On mismatch returns false with `*diff` set to a human-readable path.
bool ReportValuesEqual(const multiclust::json::Value& a,
                       const multiclust::json::Value& b,
                       const std::string& path, std::string* diff) {
  using multiclust::json::Value;
  if (a.type() != b.type()) {
    *diff = path + ": type mismatch";
    return false;
  }
  switch (a.type()) {
    case Value::Type::kNull:
      return true;
    case Value::Type::kBool:
      if (a.bool_value() != b.bool_value()) {
        *diff = path + ": " + (a.bool_value() ? "true" : "false") + " vs " +
                (b.bool_value() ? "true" : "false");
        return false;
      }
      return true;
    case Value::Type::kNumber: {
      const double x = a.number_value(), y = b.number_value();
      const bool both_nan = x != x && y != y;
      if (x != y && !both_nan) {
        *diff = path + ": " + multiclust::json::FormatDouble(x) + " vs " +
                multiclust::json::FormatDouble(y);
        return false;
      }
      return true;
    }
    case Value::Type::kString:
      if (a.string_value() != b.string_value()) {
        *diff = path + ": \"" + a.string_value() + "\" vs \"" +
                b.string_value() + "\"";
        return false;
      }
      return true;
    case Value::Type::kArray: {
      if (a.size() != b.size()) {
        *diff = path + ": array length " + std::to_string(a.size()) + " vs " +
                std::to_string(b.size());
        return false;
      }
      for (size_t i = 0; i < a.size(); ++i) {
        if (!ReportValuesEqual(a.array_items()[i], b.array_items()[i],
                               path + "[" + std::to_string(i) + "]", diff)) {
          return false;
        }
      }
      return true;
    }
    case Value::Type::kObject: {
      // Positional compare over wall-clock-filtered members: report JSON is
      // machine-generated with a deterministic key order, so an order change
      // is itself a difference worth flagging.
      std::vector<const std::pair<std::string, Value>*> am, bm;
      for (const auto& m : a.object_items()) {
        if (!IsWallClockKey(m.first)) am.push_back(&m);
      }
      for (const auto& m : b.object_items()) {
        if (!IsWallClockKey(m.first)) bm.push_back(&m);
      }
      if (am.size() != bm.size()) {
        *diff = path + ": object member count " + std::to_string(am.size()) +
                " vs " + std::to_string(bm.size());
        return false;
      }
      for (size_t i = 0; i < am.size(); ++i) {
        if (am[i]->first != bm[i]->first) {
          *diff = path + ": key \"" + am[i]->first + "\" vs \"" +
                  bm[i]->first + "\"";
          return false;
        }
        if (!ReportValuesEqual(am[i]->second, bm[i]->second,
                               path + "." + am[i]->first, diff)) {
          return false;
        }
      }
      return true;
    }
  }
  return true;
}

int RunReportCompare(const std::vector<std::string>& files) {
  if (files.size() != 2) return Usage();
  auto baseline = LoadJson(files[0]);
  auto current = LoadJson(files[1]);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!baseline.ok() ? baseline.status() : current.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  std::string diff;
  if (!ReportValuesEqual(*baseline, *current, "$", &diff)) {
    std::fprintf(stderr, "reports differ at %s\n", diff.c_str());
    return 1;
  }
  std::printf("reports identical (ignoring wall-clock fields)\n");
  return 0;
}

// Schema check for one `multiclust.progress` NDJSON stream as written by
// `discover_cli --progress=...` or streamed by discoverd (where every
// line carries an additive "job" tag). Lines are grouped by their "job"
// member (absent = the single untagged CLI group); within each group the
// seq/elapsed stamps must be monotonic and exactly one terminal event
// must close the group — interleaving across jobs is free.
Status ValidateProgressStream(const std::string& text) {
  struct GroupState {
    double last_seq = -1.0;
    double last_elapsed = -1.0;
    bool saw_terminal = false;
  };
  std::map<std::string, GroupState> groups;
  size_t line_no = 0;
  size_t events = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);
    auto parsed = multiclust::json::Parse(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(where + ": " +
                                     parsed.status().ToString());
    }
    if (!parsed->is_object()) {
      return Status::InvalidArgument(where + ": not a JSON object");
    }
    if (parsed->GetString("kind", "") != "multiclust.progress") {
      return Status::InvalidArgument(where +
                                     ": kind != \"multiclust.progress\"");
    }
    const double version = parsed->GetNumber("schema_version", -1.0);
    if (version != 1.0) {
      return Status::InvalidArgument(where + ": unsupported schema_version");
    }
    const std::string job = parsed->GetString("job", "");
    GroupState& group = groups[job];
    const std::string tag = job.empty() ? "" : " (job " + job + ")";
    if (group.saw_terminal) {
      return Status::InvalidArgument(where + tag +
                                     ": event after terminal event");
    }
    const double seq = parsed->GetNumber("seq", -1.0);
    if (seq <= group.last_seq) {
      return Status::InvalidArgument(where + tag + ": seq not increasing");
    }
    group.last_seq = seq;
    const double elapsed = parsed->GetNumber("elapsed_ms", -1.0);
    if (elapsed < 0.0 || elapsed + 1e-9 < group.last_elapsed) {
      return Status::InvalidArgument(where + tag +
                                     ": elapsed_ms missing or decreasing");
    }
    group.last_elapsed = elapsed;
    if (parsed->GetString("stage", "").empty()) {
      return Status::InvalidArgument(where + ": missing stage");
    }
    const std::string phase = parsed->GetString("phase", "");
    if (phase != "start" && phase != "iteration" && phase != "end" &&
        phase != "complete" && phase != "error") {
      return Status::InvalidArgument(where + ": unknown phase \"" + phase +
                                     "\"");
    }
    if (parsed->GetBool("terminal", false)) group.saw_terminal = true;
    ++events;
  }
  if (events == 0) return Status::InvalidArgument("empty progress stream");
  for (const auto& [job, group] : groups) {
    if (!group.saw_terminal) {
      return Status::InvalidArgument(
          (job.empty() ? std::string("stream") : "job " + job) +
          " does not end in a terminal event");
    }
  }
  return Status::OK();
}

// Structural check for an OpenMetrics exposition as written by
// `metrics::OpenMetricsText()`: `# TYPE`/`# EOF` comments, sample lines
// with legal metric-name characters and parseable values, terminated by
// `# EOF`.
Status ValidateOpenMetrics(const std::string& text) {
  size_t line_no = 0;
  bool saw_eof = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const std::string where = "line " + std::to_string(line_no);
    if (saw_eof) {
      return Status::InvalidArgument(where + ": content after # EOF");
    }
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t space = line.find(' ', 7);
      if (space == std::string::npos) {
        return Status::InvalidArgument(where + ": malformed # TYPE line");
      }
      const std::string type = line.substr(space + 1);
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "unknown") {
        return Status::InvalidArgument(where + ": unknown metric type \"" +
                                       type + "\"");
      }
      continue;
    }
    if (line[0] == '#') {
      return Status::InvalidArgument(where + ": unexpected comment");
    }
    // Sample line: name[{labels}] value
    size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
            line[i] == '_' || line[i] == ':')) {
      ++i;
    }
    if (i == 0) {
      return Status::InvalidArgument(where + ": missing metric name");
    }
    if (i < line.size() && line[i] == '{') {
      const size_t close = line.find('}', i);
      if (close == std::string::npos) {
        return Status::InvalidArgument(where + ": unterminated label set");
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return Status::InvalidArgument(where + ": missing value separator");
    }
    const std::string value = line.substr(i + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    if (value.empty() || end == value.c_str() || *end != '\0') {
      return Status::InvalidArgument(where + ": unparseable value \"" +
                                     value + "\"");
    }
  }
  if (!saw_eof) {
    return Status::InvalidArgument("exposition does not end with # EOF");
  }
  return Status::OK();
}

// Schema check for a `multiclust.crash_report` JSON document as written
// by blackbox::InstallCrashHandler (or FlightRecordJson): envelope fields,
// a signal number/name pair, and a threads array whose entries carry
// open-span stacks and typed flight-recorder events. Timestamps are NOT
// required to be monotonic: a ring read racing the crashed thread at the
// ring boundary can legally interleave records from different laps.
Status ValidateCrashReport(const std::string& text) {
  auto parsed = multiclust::json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("not a JSON object");
  }
  if (parsed->GetString("kind", "") != "multiclust.crash_report") {
    return Status::InvalidArgument("kind != \"multiclust.crash_report\"");
  }
  if (parsed->GetNumber("schema_version", -1.0) != 1.0) {
    return Status::InvalidArgument("unsupported schema_version");
  }
  const multiclust::json::Value* signal = parsed->Find("signal");
  if (signal == nullptr || !signal->is_number()) {
    return Status::InvalidArgument("missing numeric \"signal\"");
  }
  if (parsed->GetString("signal_name", "").empty()) {
    return Status::InvalidArgument("missing \"signal_name\"");
  }
  const multiclust::json::Value* resource = parsed->Find("resource");
  if (resource == nullptr || !resource->is_object()) {
    return Status::InvalidArgument("missing \"resource\" object");
  }
  const multiclust::json::Value* threads = parsed->Find("threads");
  if (threads == nullptr || !threads->is_array()) {
    return Status::InvalidArgument("missing \"threads\" array");
  }
  if (threads->size() == 0) {
    return Status::InvalidArgument("empty \"threads\" array");
  }
  for (size_t t = 0; t < threads->size(); ++t) {
    const multiclust::json::Value& thread = threads->array_items()[t];
    const std::string where = "threads[" + std::to_string(t) + "]";
    if (!thread.is_object()) {
      return Status::InvalidArgument(where + ": not an object");
    }
    const multiclust::json::Value* spans = thread.Find("open_spans");
    if (spans == nullptr || !spans->is_array()) {
      return Status::InvalidArgument(where + ": missing \"open_spans\"");
    }
    for (const multiclust::json::Value& span : spans->array_items()) {
      if (!span.is_string() || span.string_value().empty()) {
        return Status::InvalidArgument(where + ": non-string open span");
      }
    }
    const multiclust::json::Value* events = thread.Find("events");
    if (events == nullptr || !events->is_array()) {
      return Status::InvalidArgument(where + ": missing \"events\"");
    }
    for (size_t e = 0; e < events->size(); ++e) {
      const multiclust::json::Value& event = events->array_items()[e];
      const std::string ew = where + ".events[" + std::to_string(e) + "]";
      if (!event.is_object()) {
        return Status::InvalidArgument(ew + ": not an object");
      }
      if (event.Find("t") == nullptr || !event.Find("t")->is_number()) {
        return Status::InvalidArgument(ew + ": missing numeric \"t\"");
      }
      if (event.GetString("type", "").empty()) {
        return Status::InvalidArgument(ew + ": missing \"type\"");
      }
      if (event.GetString("name", "").empty()) {
        return Status::InvalidArgument(ew + ": missing \"name\"");
      }
    }
  }
  return Status::OK();
}

int RunValidateWith(const std::vector<std::string>& files,
                    Status (*check)(const std::string&), const char* what) {
  if (files.empty()) return Usage();
  for (const std::string& path : files) {
    auto content = ReadFile(path);
    const Status st = content.ok() ? check(*content) : content.status();
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("%s: valid %s\n", path.c_str(), what);
  }
  return 0;
}

int RunValidate(const std::vector<std::string>& files) {
  if (files.empty()) return Usage();
  for (const std::string& path : files) {
    auto doc = LoadJson(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 1;
    }
    const bool suite =
        doc->GetString("kind", "") == "multiclust.bench_suite";
    const Status st = suite ? multiclust::bench::ValidateSuiteDocument(*doc)
                            : multiclust::bench::ValidateBenchDocument(*doc);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("%s: valid %s document\n", path.c_str(),
                suite ? "suite" : "bench");
  }
  return 0;
}

int RunMerge(const std::string& out_path,
             const std::vector<std::string>& files) {
  if (out_path.empty() || files.empty()) return Usage();
  std::vector<multiclust::json::Value> docs;
  for (const std::string& path : files) {
    auto doc = LoadJson(path);
    if (!doc.ok()) {
      std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
      return 1;
    }
    const Status st = multiclust::bench::ValidateBenchDocument(*doc);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
    docs.push_back(std::move(*doc));
  }
  const std::string merged = multiclust::bench::MergeSuiteJson(docs);
  const Status st = multiclust::atomicio::AtomicWritePath(out_path, merged);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("merged %zu documents into %s\n", docs.size(),
              out_path.c_str());
  return 0;
}

int RunCompare(const std::string& baseline_path,
               const std::string& current_path, const DiffOptions& options) {
  auto baseline = LoadJson(baseline_path);
  auto current = LoadJson(current_path);
  if (!baseline.ok() || !current.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!baseline.ok() ? baseline.status() : current.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  const bool base_suite =
      baseline->GetString("kind", "") == "multiclust.bench_suite";
  const bool cur_suite =
      current->GetString("kind", "") == "multiclust.bench_suite";
  if (base_suite != cur_suite) {
    std::fprintf(stderr,
                 "cannot compare a suite document with a single-bench "
                 "document (%s vs %s)\n",
                 baseline_path.c_str(), current_path.c_str());
    return 1;
  }
  const DiffReport report =
      base_suite
          ? multiclust::bench::DiffSuites(*baseline, *current, options)
          : multiclust::bench::DiffBenchDocuments(*baseline, *current,
                                                  options);
  std::fputs(report.ToString().c_str(), stdout);
  return report.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  std::string merge_out;
  bool validate = false, merge = false, report = false;
  bool validate_progress = false, validate_openmetrics = false;
  bool validate_crash = false;
  DiffOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--validate") == 0) {
      validate = true;
    } else if (std::strcmp(arg, "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(arg, "--report") == 0) {
      report = true;
    } else if (std::strcmp(arg, "--validate-progress") == 0) {
      validate_progress = true;
    } else if (std::strcmp(arg, "--validate-openmetrics") == 0) {
      validate_openmetrics = true;
    } else if (std::strcmp(arg, "--validate-crash-report") == 0) {
      validate_crash = true;
    } else if (std::strcmp(arg, "-o") == 0 && i + 1 < argc) {
      merge_out = argv[++i];
    } else if (std::strncmp(arg, "--timing-band=", 14) == 0) {
      options.timing_band = std::strtod(arg + 14, nullptr);
      if (options.timing_band < 1.0) return Usage();
    } else if (std::strncmp(arg, "--timing-floor-ms=", 18) == 0) {
      options.timing_floor_ms = std::strtod(arg + 18, nullptr);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage();
      return 0;
    } else if (arg[0] == '-' && arg[1] != '\0') {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (validate + merge + report + validate_progress + validate_openmetrics +
          validate_crash >
      1) {
    return Usage();
  }
  if (validate) return RunValidate(positional);
  if (merge) return RunMerge(merge_out, positional);
  if (report) return RunReportCompare(positional);
  if (validate_progress) {
    return RunValidateWith(positional, ValidateProgressStream,
                           "multiclust.progress stream");
  }
  if (validate_openmetrics) {
    return RunValidateWith(positional, ValidateOpenMetrics,
                           "OpenMetrics exposition");
  }
  if (validate_crash) {
    return RunValidateWith(positional, ValidateCrashReport,
                           "multiclust.crash_report document");
  }
  if (positional.size() != 2) return Usage();
  return RunCompare(positional[0], positional[1], options);
}
