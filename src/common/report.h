#ifndef MULTICLUST_COMMON_REPORT_H_
#define MULTICLUST_COMMON_REPORT_H_

#include <string>

#include "common/json.h"
#include "common/runguard.h"
#include "common/status.h"

namespace multiclust {

struct DiscoveryReport;

/// Versioned JSON serialization of run outcomes — the durable export layer
/// on top of the telemetry the pipeline and run-guard subsystems already
/// collect. One artifact captures everything needed to audit a run after
/// the fact: the solutions and their objective scores, every strategy
/// attempt's RunDiagnostics (including the per-iteration ConvergenceTrace),
/// the metrics-registry snapshot and the span-summary table.
///
/// Schema stability policy (see DESIGN.md "Report schema"): every document
/// carries `schema_version` and a `kind` discriminator. Additive changes
/// (new fields) do not bump the version — readers must ignore unknown
/// fields; renames/removals/semantic changes do. Documents written by an
/// old library version stay parseable by design: the writer never reuses a
/// field name with a different meaning within one version.
///
/// Version history:
///   v1 — PR 4: solutions / objective / attempts / metrics / spans.
///   v2 — telemetry plane: optional "resource" (ResourceProfile) members on
///        the report and on each attempt's diagnostics. v1 documents stay
///        readable: ReadDiscoveryReportJson accepts both and leaves
///        `resource.captured == false` when the member is absent.
inline constexpr int kReportSchemaVersion = 2;

/// Controls artifact size. The defaults archive everything; flip the
/// include flags off for compact artifacts (e.g. labels for a million
/// objects, or thousand-point convergence traces).
struct ReportJsonOptions {
  /// Per-solution label vectors (`solutions[i].labels`).
  bool include_labels = true;
  /// Per-iteration convergence points (`attempts[i].trace.points`);
  /// the winning restart and scalar diagnostics are always kept.
  bool include_trace_points = true;
  /// Metrics-registry snapshot (metrics::MetricsJson()).
  bool include_metrics = true;
  /// Span-summary table (trace::Summary()); empty array when the tracer
  /// was never enabled.
  bool include_spans = true;
};

/// {"wall_ms":..,"user_cpu_ms":..,"system_cpu_ms":..,"peak_rss_kb":..,
///  "minor_faults":..,"major_faults":..,"alloc_count":..,"alloc_bytes":..,
///  "flops":..,"kernel_bytes":..} appended to `w` as one JSON value (the
/// report's and each attempt's "resource" member).
void AppendResourceProfile(const telemetry::ResourceProfile& resource,
                           json::Writer* w);

/// --- Standalone artifacts. ---

/// One self-describing document:
///   {"schema_version":2,"kind":"multiclust.discovery_report",
///    "report":{...},"metrics":[...],"spans":[...]}
std::string DiscoveryReportJson(const DiscoveryReport& report,
                                const ReportJsonOptions& options = {});

/// Parses a DiscoveryReportJson document back into a DiscoveryReport.
/// Accepts schema versions 1 and 2: v1 documents (no "resource" members)
/// parse with `resource.captured == false` everywhere. Centroid matrices
/// and the metrics/spans snapshots are not part of the report struct and
/// are not reconstructed; label vectors are recovered when the document
/// was written with `include_labels`.
Result<DiscoveryReport> ReadDiscoveryReportJson(const std::string& text);

/// Publishes DiscoveryReportJson(report, options) at `path` atomically
/// and durably (atomicio, directory fsynced; I/O fault site "report"): a
/// reader sees the previous file or the complete new one, never a torn one.
Status WriteDiscoveryReport(const std::string& path,
                            const DiscoveryReport& report,
                            const ReportJsonOptions& options = {});

}  // namespace multiclust

#endif  // MULTICLUST_COMMON_REPORT_H_
