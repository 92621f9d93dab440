#ifndef MULTICLUST_TOOLS_CHAOS_CHAOS_H_
#define MULTICLUST_TOOLS_CHAOS_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "common/status.h"

namespace multiclust {

/// Chaos campaign engine (see DESIGN.md "Fault model v2 & chaos testing").
///
/// The subsystem generates seeded randomized fault schedules — compositions
/// of the FaultKind taxonomy across all algorithm sites, iterations and the
/// checkpoint I/O boundary — executes them against the 8 iterative
/// algorithms and the discovery pipeline (including kill→resume cycles
/// through the Checkpointer), and checks a fixed invariant set after every
/// run. A violated run is shrunk by delta debugging over its fault list to
/// a 1-minimal reproduction, printable as a re-runnable `--schedule=JSON`
/// for `tools/chaos_runner`.
///
/// Everything here is deterministic: the same seed always produces the same
/// schedule, the same execution and the same verdict.
namespace chaos {

inline constexpr int kScheduleSchemaVersion = 1;
inline constexpr const char kScheduleKind[] = "multiclust.chaos_schedule";

/// One chaos run: a workload driven under a fault schedule.
struct RunConfig {
  /// One of WorkloadNames(): the 8 iterative algorithms or "pipeline".
  std::string workload = "kmeans";
  /// Data/algorithm seed for the workload (not the schedule-generator
  /// seed; GenerateConfig derives both from its own seed).
  uint64_t seed = 1;
  std::vector<FaultSpec> schedule;
  /// Checkpoint rotation depth for the run's Checkpointer.
  size_t keep_last = 2;
  /// Attach a Checkpointer (in a private temp directory unless
  /// `checkpoint_dir` is set). Required for kCrash / I/O-fault schedules.
  bool with_checkpoint = true;
  /// Optional fixed checkpoint directory (kept afterwards); empty uses a
  /// per-run temp directory that is removed when the run finishes.
  std::string checkpoint_dir;
  /// Smaller workload datasets (CI-speed soaks). Serialized with the
  /// schedule so a replayed repro uses the exact data the soak used.
  bool quick = false;
};

/// The drivable workloads, in canonical order: "kmeans", "gmm", "spectral",
/// "dec-kmeans", "coala", "co-em", "orclus", "proclus", "pipeline".
const std::vector<std::string>& WorkloadNames();

/// One violated invariant, with enough detail to diagnose without rerunning.
struct Violation {
  std::string invariant;  ///< "status-consistency", "baseline-equivalence",
                          ///< "checkpoint-survivor", "budget-honored",
                          ///< "report-schema", "crash-resume"
  std::string detail;
};

/// Everything observed from one schedule execution.
struct RunOutcome {
  Status status;                 ///< final status after any resume cycles
  bool produced_result = false;  ///< a result object came back
  uint64_t digest = 0;           ///< FNV over labels + objective bit patterns
  uint64_t baseline_digest = 0;  ///< same workload, no faults, no checkpoint
  size_t iterations = 0;         ///< outer iterations of the final result
  size_t resume_cycles = 0;      ///< kAborted → fresh-Checkpointer resumes
  size_t snapshots_written = 0;  ///< across all attempts
  size_t fault_fires = 0;        ///< fault::TotalFires() at run end
  std::vector<Violation> violations;  ///< empty = all invariants held
  /// Flight-record dump (blackbox::FlightRecordJson) captured when the
  /// run violated an invariant: what every thread was doing, the
  /// checkpoint/fault state and the last events of the failing run.
  /// Empty on clean runs.
  std::string flight_record;
};

/// Executes `config`: arms the schedule, runs the workload (resuming from
/// the checkpoint directory after every injected crash), disarms, and
/// checks the invariants. Only infrastructure failures (e.g. no usable
/// temp directory) surface as errors — a *workload* failure is data in the
/// returned outcome, judged by the invariants.
Result<RunOutcome> RunSchedule(const RunConfig& config);

/// Serializes `config` as a standalone re-runnable schedule document
/// (kind "multiclust.chaos_schedule"); inverse of ParseRunConfigJson.
std::string RunConfigToJson(const RunConfig& config);
Result<RunConfig> ParseRunConfigJson(std::string_view text);

/// Shrinks `config.schedule` to a 1-minimal failing sub-schedule: greedy
/// delta debugging, repeatedly dropping any single fault whose removal
/// keeps `still_fails` true, to a fixpoint (no single fault can be removed
/// without losing the violation). `still_fails` receives the candidate
/// config; the overload without a predicate re-executes RunSchedule and
/// tests for any violation.
std::vector<FaultSpec> ShrinkSchedule(
    const RunConfig& config,
    const std::function<bool(const RunConfig&)>& still_fails);
std::vector<FaultSpec> ShrinkSchedule(const RunConfig& config);

/// Deterministic schedule generator: `seed` fully determines the workload
/// choice, fault count, sites, kinds, iterations, fire caps, probabilistic
/// coins and rotation depth. Crash schedules combine kCrash only with
/// result-neutral I/O faults so the resumed result remains comparable to
/// the clean baseline. `workloads` restricts the choice (empty = all);
/// `quick` shrinks the workload datasets for CI-speed soaks.
RunConfig GenerateConfig(uint64_t seed, bool quick = false,
                         const std::vector<std::string>& workloads = {});

struct CampaignOptions {
  uint64_t base_seed = 1;
  size_t num_seeds = 50;
  bool quick = false;
  /// Restrict generated schedules to these workloads (empty = all).
  std::vector<std::string> workloads;
  /// Shrink every violated schedule to its minimal reproduction (on by
  /// default; costs extra runs only when something is already broken).
  bool shrink = true;
};

/// One failing run: the original config, the shrunk minimal schedule and
/// the violations the *minimal* schedule reproduces.
struct ViolationReport {
  RunConfig config;
  std::vector<FaultSpec> minimal;
  std::vector<Violation> violations;
  /// Flight-record dump of the minimal schedule's violating re-run (see
  /// RunOutcome::flight_record) — ships with the shrunk repro so the
  /// post-mortem travels with the reproduction.
  std::string flight_record;
};

struct CampaignResult {
  size_t runs = 0;
  size_t total_fault_fires = 0;
  std::vector<ViolationReport> failures;
};

/// Runs GenerateConfig(base_seed + i) for i in [0, num_seeds), collecting
/// every invariant violation (shrunk when options.shrink). `progress`, when
/// set, is called after every run with (completed, total).
CampaignResult RunCampaign(
    const CampaignOptions& options,
    const std::function<void(size_t, size_t)>& progress = nullptr);

}  // namespace chaos
}  // namespace multiclust

#endif  // MULTICLUST_TOOLS_CHAOS_CHAOS_H_
