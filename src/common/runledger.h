#ifndef MULTICLUST_COMMON_RUNLEDGER_H_
#define MULTICLUST_COMMON_RUNLEDGER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace multiclust {

/// Durable run ledger: an append-only `runs.jsonl` file holding one
/// `multiclust.run_record` line per tool invocation — what ran (input and
/// options fingerprint, seed, build), how it ended (status, exit code,
/// objective), and where the artifacts live (report, checkpoint
/// directory, crash report). The ledger is the provenance trail that
/// outlives any single process: a crashed run and its resume are two
/// lines in the same file.
///
/// Durability model: each Append is ONE write(2) of a complete line into
/// an O_APPEND descriptor followed by fsync, so concurrent appenders
/// interleave at line granularity and a crash mid-append leaves at most
/// one torn final line. Append heals a torn tail (a file not ending in
/// '\n') by newline-terminating it before writing, so the torn half-line
/// never fuses with — and never corrupts — the next record. Readers skip
/// unparseable lines (reporting how many) instead of failing — the
/// ledger stays readable after any crash.
///
/// Schema stability policy: `schema_version` bumps only on breaking
/// changes (field removal or meaning change); adding optional fields is
/// allowed within a version. Consumers must ignore unknown fields.
namespace ledger {

inline constexpr int kRunRecordSchemaVersion = 1;
inline constexpr char kRunRecordKind[] = "multiclust.run_record";

/// One ledger line. Empty strings and NaN objective serialize as absent
/// fields.
struct RunRecord {
  std::string run_id;  ///< unique per invocation (GenerateRunId)
  std::string tool;    ///< "discover_cli", "chaos_runner", "discoverd", ...
  /// Outcome or lifecycle transition. Terminal statuses: "ok", "aborted",
  /// "cancelled", "error", "rejected" (admission control shed the job) and
  /// "evicted" (an accepted-but-not-started job was dropped — explicit
  /// cancel or queue-TTL expiry). Non-terminal: "queued" (job accepted and
  /// durably spooled; the serving layer appends this BEFORE acknowledging
  /// the client, so an acknowledged job always has a ledger trail),
  /// "resumed" (recovery re-enqueued the job after a restart) and
  /// "crashed" (the blackbox handler's pre-formatted line). One accepted
  /// job therefore reads as: queued → resumed* → terminal; `rejected` is a
  /// one-line story. Readers written against the original status set stay
  /// correct: the new values reuse the same string field and every other
  /// member keeps its meaning (schema_version stays 1 — additive change).
  std::string status;
  int exit_code = 0;
  uint64_t seed = 0;
  /// Hex input/options fingerprint (checkpoint.h Fingerprint) — two
  /// records with equal fingerprints ran the same work.
  std::string fingerprint;
  std::string workload;  ///< dataset description ("synthetic n=600 d=8")
  std::string strategy;  ///< discovery strategy / campaign name
  /// Final objective of the run; NaN = not applicable / never reached.
  double objective = std::numeric_limits<double>::quiet_NaN();
  std::string report_path;     ///< report JSON artifact
  std::string checkpoint_dir;  ///< checkpoint directory, when armed
  std::string crash_report;    ///< crash-report artifact, when one exists
  std::string note;            ///< free-form context ("resume of run-...")
  /// Serving-layer attribution (PR 10, absent on plain CLI runs): the
  /// daemon-assigned job id shared by every line of one job's story, and
  /// the tenant that submitted it.
  std::string job;
  std::string tenant;
};

/// True for statuses that end a job's story ("ok", "error", "aborted",
/// "cancelled", "rejected", "evicted"). False for lifecycle transitions
/// ("queued", "resumed", "crashed") — the states the serving layer's
/// recovery scan must pick up and finish. Unknown strings are treated as
/// terminal so a future status never causes an infinite resume loop.
bool IsTerminalStatus(std::string_view status);

/// Unique-enough identifier: `prefix` + "-" + 16 hex digits mixed from the
/// pid, the wall clock, `seed` and a process-local sequence ("run-..." for
/// ledger runs, "job-..." for daemon jobs).
std::string GenerateRunId(uint64_t seed, const char* prefix = "run");

/// The record as a single JSON line (no trailing newline). Includes the
/// envelope (kind, schema_version) and a "build" object with the git
/// revision and compiled-feature flags.
std::string RunRecordJson(const RunRecord& record);

/// Appends `record` to `ledger_path` (O_APPEND, single write, fsync).
/// Creates the file when missing; parent directory must exist. Fault
/// site "ledger" models write failure and torn appends (kIoWriteFail /
/// kIoShortWrite).
Status Append(const std::string& ledger_path, const RunRecord& record);

/// Reads every parseable record from `ledger_path` into `out`,
/// tolerating a torn trailing line (and any other junk line): skipped
/// lines are counted into `skipped_lines` when non-null. NotFound when
/// the file does not exist.
Status Read(const std::string& ledger_path, std::vector<RunRecord>* out,
            size_t* skipped_lines = nullptr);

}  // namespace ledger
}  // namespace multiclust

#endif  // MULTICLUST_COMMON_RUNLEDGER_H_
