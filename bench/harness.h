#ifndef MULTICLUST_BENCH_HARNESS_H_
#define MULTICLUST_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/profile.h"
#include "common/status.h"

namespace multiclust {
namespace bench {

/// Shared experiment harness for the bench/ binaries (see DESIGN.md
/// "Report schema"). Each binary keeps its human-readable text output and
/// additionally registers its results — named scalars, (x, y) series,
/// string/number tables and pass/fail shape assertions — with a Harness.
/// The harness understands two flags:
///
///   --json=PATH   write the machine-readable result document to PATH
///   --quick       reduced-size mode (the binary reads harness.quick() and
///                 shrinks its workload); recorded in the document
///
/// `bench_diff` compares two such documents (or two merged suite
/// documents) with per-metric tolerance bands and exits nonzero on
/// regression: shape checks hard-fail, anything registered as
/// timing-dependent only warns — wall-clock numbers are not comparable
/// across hosts, shapes are.
///
/// Document schema (schema_version 1, kind "multiclust.bench"):
///   {"schema_version":1,"kind":"multiclust.bench","bench":"<binary>",
///    "title":"...","quick":false,
///    "host":{"logical_cores":..,"threads":..,"isa":"avx512f",
///            "simd_backend":"avx2","simd_compiled":true,
///            "double_lanes":4},   // optional (v1 docs)
///    "resource":{"wall_ms":..,"user_cpu_ms":..,"system_cpu_ms":..,
///                "peak_rss_kb":..,"minor_faults":..,"major_faults":..,
///                "alloc_count":..,"alloc_bytes":..,"flops":..,
///                "kernel_bytes":..},   // optional: ResourceProfile of the
///                                      // bench process, harness lifetime
///                                      // (wall-clock — bench_diff ignores)
///    "scalars":[{"name":..,"value":..,"unit":..,"timing":..,
///                "tol_rel":..,"tol_abs":..}],
///    "series":[{"name":..,"x_name":..,"y_name":..,"unit":..,"timing":..,
///               "tol_rel":..,"tol_abs":..,"points":[[x,y],..]}],
///    "tables":[{"name":..,"columns":[..],
///               "rows":[[cell,..],..]}]          // cells: string|number
///    "checks":[{"name":..,"passed":..,"severity":"hard"|"warn",
///               "detail":".."}]}
/// Merged suites: {"schema_version":1,"kind":"multiclust.bench_suite",
///                 "benches":[<bench documents>]}.

/// Comparison tolerances of one scalar/series. The defaults suit the
/// seeded, bit-deterministic quantities most benches emit (tiny relative
/// band absorbs cross-compiler libm drift); mark wall-clock measurements
/// with `Timing()` so bench_diff never fails on them.
struct ValueOptions {
  std::string unit;        ///< free-form, e.g. "ms", "ARI", "nmi"
  bool timing = false;     ///< wall-clock-dependent: diff warns, never fails
  double tol_rel = 1e-9;   ///< relative tolerance band for bench_diff
  double tol_abs = 1e-12;  ///< absolute tolerance band for bench_diff

  static ValueOptions Timing() {
    ValueOptions o;
    o.unit = "ms";
    o.timing = true;
    return o;
  }
  static ValueOptions Tolerance(double rel, double abs = 1e-12) {
    ValueOptions o;
    o.tol_rel = rel;
    o.tol_abs = abs;
    return o;
  }
};

/// One registered series: a named list of (x, y) points.
class Series {
 public:
  void Add(double x, double y) { points_.push_back({x, y}); }
  size_t size() const { return points_.size(); }

 private:
  friend class Harness;
  std::string name_, x_name_, y_name_;
  ValueOptions options_;
  std::vector<std::pair<double, double>> points_;
};

/// One registered table: fixed columns, rows of string or number cells.
class Table {
 public:
  /// Starts a new row; fill it with Cell()/TextCell() calls.
  void Row() { rows_.emplace_back(); }
  void Cell(double v) { rows_.back().push_back({true, v, {}}); }
  void TextCell(const std::string& v) { rows_.back().push_back({false, 0.0, v}); }
  size_t num_rows() const { return rows_.size(); }

 private:
  friend class Harness;
  struct CellValue {
    bool is_number;
    double number;
    std::string text;
  };
  std::string name_;
  ValueOptions options_;
  std::vector<std::string> columns_;
  std::vector<std::vector<CellValue>> rows_;
};

class Harness {
 public:
  /// `id` is the binary name (doc "bench" field, bench_diff's match key);
  /// `title` a human one-liner (usually the experiment id + claim).
  Harness(std::string id, std::string title);

  /// Consumes --json=PATH / --quick / --help from argv (compacting argv and
  /// updating *argc in place so remaining flags can go to another parser,
  /// e.g. benchmark::Initialize). Returns false when the binary should exit
  /// immediately (--help, malformed flag); exit with ExitCode() then.
  bool ParseArgs(int* argc, char** argv);
  int ExitCode() const { return exit_code_; }

  bool quick() const { return quick_; }
  const std::string& json_path() const { return json_path_; }

  /// --- Result registration. Names are unique per kind; re-registering a
  ///     scalar overwrites (convenient for derived metrics). ---
  void Scalar(const std::string& name, double value,
              const ValueOptions& options = {});
  /// Sugar for a wall-clock scalar in ms.
  void Timing(const std::string& name, double ms);
  /// The registered value of a scalar (`def` when absent) — for deriving
  /// summary metrics from already-registered ones.
  double ScalarValue(const std::string& name, double def) const;

  Series* AddSeries(const std::string& name, const std::string& x_name,
                    const std::string& y_name,
                    const ValueOptions& options = {});
  Table* AddTable(const std::string& name,
                  const std::vector<std::string>& columns,
                  const ValueOptions& options = {});

  /// Shape assertion: hard-fails bench_diff (and this binary's exit code)
  /// when false. Use for the qualitative claims EXPERIMENTS.md records —
  /// crossovers, orderings, recovery thresholds.
  void Check(const std::string& name, bool passed, const std::string& detail);
  /// Host-dependent assertion (timing bars, speedups): failure prints and
  /// is recorded, but never fails the binary or bench_diff.
  void WarnCheck(const std::string& name, bool passed,
                 const std::string& detail);

  /// The result document (schema above).
  std::string DocumentJson() const;

  /// Prints the check summary, writes the document when --json was given,
  /// and returns the process exit code: 0 when every hard check passed and
  /// the write succeeded, 1 otherwise. Call as `return harness.Finish();`.
  int Finish();

 private:
  struct ScalarResult {
    std::string name;
    double value;
    ValueOptions options;
  };
  struct CheckResult {
    std::string name;
    bool passed;
    bool hard;
    std::string detail;
  };

  std::string id_;
  std::string title_;
  std::string json_path_;
  bool quick_ = false;
  int exit_code_ = 0;
  std::vector<ScalarResult> scalars_;
  // unique_ptr: AddSeries/AddTable hand out stable pointers that must
  // survive later registrations (vector growth would invalidate them).
  std::vector<std::unique_ptr<Series>> series_;
  std::vector<std::unique_ptr<Table>> tables_;
  std::vector<CheckResult> checks_;
  // Resource accounting over the harness's lifetime — construction to
  // DocumentJson — recorded in the optional "resource" envelope section.
  telemetry::ResourceScope resource_scope_;
};

/// --- Document validation (the schema test; also bench_diff --validate).

/// Verifies `doc` is a well-formed bench document: envelope fields,
/// typed scalars/series/tables/checks.
Status ValidateBenchDocument(const json::Value& doc);

/// Verifies a merged suite document (each member bench doc included).
Status ValidateSuiteDocument(const json::Value& doc);

/// Merges per-bench documents into one suite document.
std::string MergeSuiteJson(const std::vector<json::Value>& docs);

/// --- Snapshot comparison (the bench_diff engine). ---

struct DiffOptions {
  /// Multiplicative band for timing values: warn when current drifts
  /// outside [base/f, base*f]. Timing never fails the diff.
  double timing_band = 3.0;
  /// Floor below which timing values are considered noise and skipped.
  double timing_floor_ms = 0.5;
};

struct DiffReport {
  std::vector<std::string> failures;  ///< regressions (nonzero exit)
  std::vector<std::string> warnings;  ///< timing drift, metadata mismatches
  size_t compared = 0;                ///< values compared within band

  bool failed() const { return !failures.empty(); }
  std::string ToString() const;
};

/// Compares two bench documents of the same binary. Rules:
///  - a hard check failing in `current` is a regression (so is one that
///    disappeared); warn checks only warn;
///  - non-timing scalars/series/tables must match the baseline within
///    their recorded tol_rel/tol_abs band; missing entries are
///    regressions, new entries only warn (baseline needs regeneration);
///  - series must have identical x grids (within tolerance);
///  - timing entries warn outside DiffOptions::timing_band;
///  - when the two documents' `quick` flags differ, numeric comparison is
///    skipped (the workloads differ by design) and only checks compare.
DiffReport DiffBenchDocuments(const json::Value& baseline,
                              const json::Value& current,
                              const DiffOptions& options);

/// Compares two suite documents, matching member benches by "bench" id.
/// A bench present in the baseline but missing from current is a
/// regression; an extra bench in current warns.
DiffReport DiffSuites(const json::Value& baseline, const json::Value& current,
                      const DiffOptions& options);

}  // namespace bench
}  // namespace multiclust

#endif  // MULTICLUST_BENCH_HARNESS_H_
