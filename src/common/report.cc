#include "common/report.h"

#include <limits>

#include "common/atomicio.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/pipeline.h"

namespace multiclust {

void AppendResourceProfile(const telemetry::ResourceProfile& resource,
                           json::Writer* w) {
  w->BeginObject();
  w->Key("wall_ms");
  w->Double(resource.wall_ms);
  w->Key("user_cpu_ms");
  w->Double(resource.user_cpu_ms);
  w->Key("system_cpu_ms");
  w->Double(resource.system_cpu_ms);
  w->Key("peak_rss_kb");
  w->Uint(resource.peak_rss_kb);
  w->Key("minor_faults");
  w->Uint(resource.minor_faults);
  w->Key("major_faults");
  w->Uint(resource.major_faults);
  w->Key("alloc_count");
  w->Uint(resource.alloc_count);
  w->Key("alloc_bytes");
  w->Uint(resource.alloc_bytes);
  w->Key("flops");
  w->Uint(resource.flops);
  w->Key("kernel_bytes");
  w->Uint(resource.kernel_bytes);
  w->EndObject();
}

namespace {

void AppendConvergencePoint(const ConvergencePoint& point, json::Writer* w) {
  w->BeginObject();
  w->Key("restart");
  w->Uint(point.restart);
  w->Key("iteration");
  w->Uint(point.iteration);
  w->Key("objective");
  w->Double(point.objective);
  w->Key("delta");
  w->Double(point.delta);
  w->Key("reseeds");
  w->Uint(point.reseeds);
  w->Key("budget_remaining_ms");
  w->Double(point.budget_remaining_ms);
  w->EndObject();
}

void AppendConvergenceTrace(const ConvergenceTrace& trace, bool with_points,
                            json::Writer* w) {
  w->BeginObject();
  w->Key("winning_restart");
  w->Uint(trace.winning_restart);
  w->Key("num_points");
  w->Uint(trace.points.size());
  if (with_points) {
    w->Key("points");
    w->BeginArray();
    for (const ConvergencePoint& point : trace.points) {
      AppendConvergencePoint(point, w);
    }
    w->EndArray();
  }
  w->EndObject();
}

void AppendRunDiagnostics(const RunDiagnostics& diagnostics, bool with_points,
                          json::Writer* w) {
  w->BeginObject();
  w->Key("algorithm");
  w->String(diagnostics.algorithm);
  w->Key("iterations");
  w->Uint(diagnostics.iterations);
  w->Key("converged");
  w->Bool(diagnostics.converged);
  w->Key("stop_reason");
  w->String(StopReasonToString(diagnostics.stop_reason));
  w->Key("retries");
  w->Uint(diagnostics.retries);
  w->Key("elapsed_ms");
  w->Double(diagnostics.elapsed_ms);
  w->Key("note");
  w->String(diagnostics.note);
  w->Key("warnings");
  w->BeginArray();
  for (const std::string& warning : diagnostics.warnings) w->String(warning);
  w->EndArray();
  w->Key("trace");
  AppendConvergenceTrace(diagnostics.trace, with_points, w);
  if (diagnostics.resource.captured) {
    w->Key("resource");
    AppendResourceProfile(diagnostics.resource, w);
  }
  w->EndObject();
}

void AppendObjectiveReport(const ObjectiveReport& objective, json::Writer* w) {
  w->BeginObject();
  w->Key("qualities");
  w->BeginArray();
  for (const double q : objective.qualities) w->Double(q);
  w->EndArray();
  w->Key("mean_quality");
  w->Double(objective.mean_quality);
  w->Key("mean_dissimilarity");
  w->Double(objective.mean_dissimilarity);
  w->Key("min_dissimilarity");
  w->Double(objective.min_dissimilarity);
  w->Key("combined");
  w->Double(objective.combined);
  w->EndObject();
}

void AppendSolutionSet(const SolutionSet& set, bool with_labels,
                       json::Writer* w) {
  w->BeginArray();
  for (size_t s = 0; s < set.size(); ++s) {
    const Clustering& solution = set.at(s);
    w->BeginObject();
    w->Key("algorithm");
    w->String(solution.algorithm);
    w->Key("num_clusters");
    w->Uint(solution.NumClusters());
    w->Key("quality");
    w->Double(solution.quality);  // NaN (unset) serializes as null
    w->Key("iterations");
    w->Uint(solution.iterations);
    w->Key("converged");
    w->Bool(solution.converged);
    w->Key("num_objects");
    w->Uint(solution.labels.size());
    if (with_labels) {
      w->Key("labels");
      w->BeginArray();
      for (const int label : solution.labels) w->Int(label);
      w->EndArray();
    }
    w->EndObject();
  }
  w->EndArray();
}

void AppendDiscoveryReport(const DiscoveryReport& report,
                           const ReportJsonOptions& options, json::Writer* w) {
  w->BeginObject();
  w->Key("strategy");
  w->String(report.strategy_name);
  w->Key("chosen_k");
  w->Uint(report.chosen_k);
  w->Key("degraded");
  w->Bool(report.degraded);
  w->Key("warnings");
  w->BeginArray();
  for (const std::string& warning : report.warnings) w->String(warning);
  w->EndArray();
  w->Key("objective");
  AppendObjectiveReport(report.objective, w);
  w->Key("solutions");
  AppendSolutionSet(report.solutions, options.include_labels, w);
  w->Key("attempts");
  w->BeginArray();
  for (const RunDiagnostics& attempt : report.attempts) {
    AppendRunDiagnostics(attempt, options.include_trace_points, w);
  }
  w->EndArray();
  if (report.resource.captured) {
    w->Key("resource");
    AppendResourceProfile(report.resource, w);
  }
  w->EndObject();
}

}  // namespace

std::string DiscoveryReportJson(const DiscoveryReport& report,
                                const ReportJsonOptions& options) {
  json::Writer w;
  w.BeginObject();
  w.Key("schema_version");
  w.Int(kReportSchemaVersion);
  w.Key("kind");
  w.String("multiclust.discovery_report");
  w.Key("report");
  AppendDiscoveryReport(report, options, &w);
  w.Key("metrics");
  if (options.include_metrics) {
    w.Raw(metrics::MetricsJson());
  } else {
    w.BeginArray();
    w.EndArray();
  }
  w.Key("spans");
  w.BeginArray();
  if (options.include_spans) {
    for (const trace::SpanStats& span : trace::Summary()) {
      w.BeginObject();
      w.Key("name");
      w.String(span.name);
      w.Key("count");
      w.Uint(span.count);
      w.Key("total_ms");
      w.Double(span.total_ms);
      w.Key("mean_ms");
      w.Double(span.mean_ms);
      w.Key("max_ms");
      w.Double(span.max_ms);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  std::string out = std::move(w).str();
  out += '\n';
  return out;
}

Status WriteDiscoveryReport(const std::string& path,
                            const DiscoveryReport& report,
                            const ReportJsonOptions& options) {
  atomicio::AtomicWriteOptions wopts;
  wopts.what = "report";
  wopts.fault_site = "report";
  wopts.fsync_dir = true;
  return atomicio::AtomicWritePath(path, DiscoveryReportJson(report, options),
                                   wopts);
}

namespace {

StopReason StopReasonFromName(const std::string& name) {
  if (name == "max-iterations") return StopReason::kMaxIterations;
  if (name == "deadline") return StopReason::kDeadline;
  if (name == "cancelled") return StopReason::kCancelled;
  return StopReason::kConverged;
}

telemetry::ResourceProfile ParseResourceProfile(const json::Value& v) {
  telemetry::ResourceProfile r;
  r.captured = true;
  r.wall_ms = v.GetNumber("wall_ms", 0.0);
  r.user_cpu_ms = v.GetNumber("user_cpu_ms", 0.0);
  r.system_cpu_ms = v.GetNumber("system_cpu_ms", 0.0);
  r.peak_rss_kb = static_cast<uint64_t>(v.GetNumber("peak_rss_kb", 0.0));
  r.minor_faults = static_cast<uint64_t>(v.GetNumber("minor_faults", 0.0));
  r.major_faults = static_cast<uint64_t>(v.GetNumber("major_faults", 0.0));
  r.alloc_count = static_cast<uint64_t>(v.GetNumber("alloc_count", 0.0));
  r.alloc_bytes = static_cast<uint64_t>(v.GetNumber("alloc_bytes", 0.0));
  r.flops = static_cast<uint64_t>(v.GetNumber("flops", 0.0));
  r.kernel_bytes = static_cast<uint64_t>(v.GetNumber("kernel_bytes", 0.0));
  return r;
}

RunDiagnostics ParseRunDiagnostics(const json::Value& v) {
  RunDiagnostics d;
  d.algorithm = v.GetString("algorithm", "");
  d.iterations = static_cast<size_t>(v.GetNumber("iterations", 0.0));
  d.converged = v.GetBool("converged", false);
  d.stop_reason = StopReasonFromName(v.GetString("stop_reason", "converged"));
  d.retries = static_cast<size_t>(v.GetNumber("retries", 0.0));
  d.elapsed_ms = v.GetNumber("elapsed_ms", 0.0);
  d.note = v.GetString("note", "");
  if (const json::Value* warnings = v.Find("warnings");
      warnings != nullptr && warnings->is_array()) {
    for (const json::Value& warning : warnings->array_items()) {
      if (warning.is_string()) d.warnings.push_back(warning.string_value());
    }
  }
  if (const json::Value* trace = v.Find("trace");
      trace != nullptr && trace->is_object()) {
    d.trace.winning_restart =
        static_cast<size_t>(trace->GetNumber("winning_restart", 0.0));
    if (const json::Value* points = trace->Find("points");
        points != nullptr && points->is_array()) {
      for (const json::Value& pv : points->array_items()) {
        ConvergencePoint p;
        p.restart = static_cast<size_t>(pv.GetNumber("restart", 0.0));
        p.iteration = static_cast<size_t>(pv.GetNumber("iteration", 0.0));
        p.objective = pv.GetNumber("objective", 0.0);
        p.delta = pv.GetNumber("delta", 0.0);
        p.reseeds = static_cast<size_t>(pv.GetNumber("reseeds", 0.0));
        p.budget_remaining_ms = pv.GetNumber("budget_remaining_ms", -1.0);
        d.trace.points.push_back(p);
      }
    }
  }
  if (const json::Value* resource = v.Find("resource");
      resource != nullptr && resource->is_object()) {
    d.resource = ParseResourceProfile(*resource);  // v2 member; absent in v1
  }
  return d;
}

}  // namespace

Result<DiscoveryReport> ReadDiscoveryReportJson(const std::string& text) {
  auto parsed = json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const json::Value& doc = parsed.value();
  if (!doc.is_object()) {
    return Status::InvalidArgument("report: document is not a JSON object");
  }
  const int version = static_cast<int>(doc.GetNumber("schema_version", 0.0));
  if (version < 1 || version > kReportSchemaVersion) {
    return Status::InvalidArgument(
        "report: unsupported schema_version " + std::to_string(version) +
        " (reader supports 1.." + std::to_string(kReportSchemaVersion) + ")");
  }
  if (doc.GetString("kind", "") != "multiclust.discovery_report") {
    return Status::InvalidArgument("report: kind is not "
                                   "'multiclust.discovery_report'");
  }
  const json::Value* rep = doc.Find("report");
  if (rep == nullptr || !rep->is_object()) {
    return Status::InvalidArgument("report: missing 'report' object");
  }

  DiscoveryReport out;
  out.strategy_name = rep->GetString("strategy", "");
  out.chosen_k = static_cast<size_t>(rep->GetNumber("chosen_k", 0.0));
  out.degraded = rep->GetBool("degraded", false);
  if (const json::Value* warnings = rep->Find("warnings");
      warnings != nullptr && warnings->is_array()) {
    for (const json::Value& warning : warnings->array_items()) {
      if (warning.is_string()) out.warnings.push_back(warning.string_value());
    }
  }
  if (const json::Value* objective = rep->Find("objective");
      objective != nullptr && objective->is_object()) {
    if (const json::Value* qualities = objective->Find("qualities");
        qualities != nullptr && qualities->is_array()) {
      for (const json::Value& q : qualities->array_items()) {
        out.objective.qualities.push_back(q.NumberOr(0.0));
      }
    }
    out.objective.mean_quality = objective->GetNumber("mean_quality", 0.0);
    out.objective.mean_dissimilarity =
        objective->GetNumber("mean_dissimilarity", 0.0);
    out.objective.min_dissimilarity =
        objective->GetNumber("min_dissimilarity", 0.0);
    out.objective.combined = objective->GetNumber("combined", 0.0);
  }
  if (const json::Value* solutions = rep->Find("solutions");
      solutions != nullptr && solutions->is_array()) {
    for (const json::Value& sv : solutions->array_items()) {
      Clustering c;
      c.algorithm = sv.GetString("algorithm", "");
      c.quality = sv.GetNumber(
          "quality", std::numeric_limits<double>::quiet_NaN());
      c.iterations = static_cast<size_t>(sv.GetNumber("iterations", 0.0));
      c.converged = sv.GetBool("converged", true);
      if (const json::Value* labels = sv.Find("labels");
          labels != nullptr && labels->is_array()) {
        c.labels.reserve(labels->size());
        for (const json::Value& label : labels->array_items()) {
          c.labels.push_back(static_cast<int>(label.NumberOr(0.0)));
        }
      }
      const Status added = out.solutions.Add(std::move(c));
      if (!added.ok()) {
        return Status::InvalidArgument("report: inconsistent solutions — " +
                                       added.ToString());
      }
    }
  }
  if (const json::Value* attempts = rep->Find("attempts");
      attempts != nullptr && attempts->is_array()) {
    for (const json::Value& av : attempts->array_items()) {
      if (av.is_object()) out.attempts.push_back(ParseRunDiagnostics(av));
    }
  }
  if (const json::Value* resource = rep->Find("resource");
      resource != nullptr && resource->is_object()) {
    out.resource = ParseResourceProfile(*resource);  // v2 member
  }
  return out;
}

}  // namespace multiclust
