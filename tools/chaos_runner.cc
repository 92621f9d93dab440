// chaos_runner: randomized fault-schedule campaigns against the multiclust
// algorithms (see DESIGN.md "Fault model v2 & chaos testing").
//
//   chaos_runner --seeds=200                 soak: 200 generated schedules
//   chaos_runner --seeds=200 --quick         CI-sized datasets
//   chaos_runner --seed=7 --workload=gmm     one generated schedule, printed
//   chaos_runner --replay=repro.json         re-run a saved schedule
//   chaos_runner --schedule='{...}'          re-run an inline schedule
//   chaos_runner --out=DIR                   write violation repros to DIR
//                                            (each repro_<N>.json gets a
//                                            repro_<N>.flight.json flight-
//                                            record dump alongside)
//   chaos_runner --run-ledger=PATH           append a multiclust.run_record
//                                            line per campaign/replay to the
//                                            durable run ledger
//
// Exit codes: 0 = all invariants held, 1 = violations (repros printed as
// re-runnable schedule JSON), 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/fault.h"
#include "common/runledger.h"
#include "common/status.h"

namespace {

using multiclust::Status;
namespace chaos = multiclust::chaos;
namespace ledger = multiclust::ledger;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds=N] [--seed=BASE] [--quick] [--workload=NAME]\n"
      "          [--no-shrink] [--out=DIR] [--run-ledger=PATH]\n"
      "       %s --replay=PATH | --schedule=JSON\n",
      argv0, argv0);
  return 2;
}

bool ParseSizeFlag(const char* arg, const char* name, size_t* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg + n + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

std::optional<std::string> StringFlag(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return std::nullopt;
  return std::string(arg + n + 1);
}

void PrintViolations(const std::vector<chaos::Violation>& violations) {
  for (const chaos::Violation& v : violations) {
    std::fprintf(stderr, "  [%s] %s\n", v.invariant.c_str(),
                 v.detail.c_str());
  }
}

// Appends one provenance record for this invocation to the run ledger
// (no-op without --run-ledger). Best-effort: a ledger failure warns but
// never changes the chaos verdict.
void AppendLedger(const std::string& ledger_path, uint64_t seed,
                  const std::string& workload, const std::string& note,
                  int exit_code) {
  if (ledger_path.empty()) return;
  ledger::RunRecord rec;
  rec.run_id = ledger::GenerateRunId(seed);
  rec.tool = "chaos_runner";
  rec.status = exit_code == 0 ? "ok" : "error";
  rec.exit_code = exit_code;
  rec.seed = seed;
  rec.workload = workload;
  rec.strategy = "chaos";
  rec.note = note;
  const Status appended = ledger::Append(ledger_path, rec);
  if (!appended.ok()) {
    std::fprintf(stderr, "warning: --run-ledger: %s\n",
                 appended.ToString().c_str());
  }
}

// Runs one explicit schedule (replay / inline). Exit 0 or 1.
int RunOne(const chaos::RunConfig& config, const std::string& ledger_path,
           const std::string& note) {
  auto outcome = chaos::RunSchedule(config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "chaos_runner: %s\n",
                 outcome.status().ToString().c_str());
    AppendLedger(ledger_path, config.seed, config.workload, note, 1);
    return 1;
  }
  std::printf("workload=%s status=%s fires=%zu resumes=%zu snapshots=%zu\n",
              config.workload.c_str(), outcome->status.ToString().c_str(),
              outcome->fault_fires, outcome->resume_cycles,
              outcome->snapshots_written);
  const int rc = outcome->violations.empty() ? 0 : 1;
  AppendLedger(ledger_path, config.seed, config.workload, note, rc);
  if (rc == 0) {
    std::printf("OK: all invariants held\n");
    return 0;
  }
  std::fprintf(stderr, "VIOLATIONS:\n");
  PrintViolations(outcome->violations);
  return 1;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  size_t seeds = 0;
  size_t base_seed = 1;
  bool quick = false;
  bool shrink = true;
  std::string workload;
  std::string out_dir;
  std::string schedule_json;
  std::string run_ledger;
  bool replay = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (ParseSizeFlag(arg, "--seeds", &seeds)) continue;
    if (ParseSizeFlag(arg, "--seed", &base_seed)) continue;
    if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
      continue;
    }
    if (std::strcmp(arg, "--no-shrink") == 0) {
      shrink = false;
      continue;
    }
    if (auto v = StringFlag(arg, "--workload")) {
      workload = *v;
      continue;
    }
    if (auto v = StringFlag(arg, "--out")) {
      out_dir = *v;
      continue;
    }
    if (auto v = StringFlag(arg, "--run-ledger")) {
      run_ledger = *v;
      continue;
    }
    if (auto v = StringFlag(arg, "--schedule")) {
      schedule_json = *v;
      continue;
    }
    if (auto v = StringFlag(arg, "--replay")) {
      std::ifstream in(*v, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "chaos_runner: cannot read %s\n", v->c_str());
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      schedule_json = std::move(buf).str();
      replay = true;
      continue;
    }
    std::fprintf(stderr, "chaos_runner: unknown flag %s\n", arg);
    return Usage(argv[0]);
  }

  if (!schedule_json.empty()) {
    auto config = chaos::ParseRunConfigJson(schedule_json);
    if (!config.ok()) {
      std::fprintf(stderr, "chaos_runner: bad schedule: %s\n",
                   config.status().ToString().c_str());
      return 2;
    }
    return RunOne(*config, run_ledger, replay ? "replay" : "schedule");
  }

  if (seeds == 0) {
    // Single generated schedule: print it, then run it.
    chaos::RunConfig config = chaos::GenerateConfig(
        base_seed, quick,
        workload.empty() ? std::vector<std::string>{}
                         : std::vector<std::string>{workload});
    std::printf("schedule: %s\n", chaos::RunConfigToJson(config).c_str());
    return RunOne(config, run_ledger, "generated");
  }

  chaos::CampaignOptions options;
  options.base_seed = base_seed;
  options.num_seeds = seeds;
  options.quick = quick;
  options.shrink = shrink;
  if (!workload.empty()) options.workloads = {workload};

  size_t last_decile = 0;
  chaos::CampaignResult result = chaos::RunCampaign(
      options, [&](size_t done, size_t total) {
        const size_t decile = 10 * done / total;
        if (decile > last_decile) {
          last_decile = decile;
          std::fprintf(stderr, "chaos_runner: %zu/%zu schedules done\n",
                       done, total);
        }
      });

  std::printf("campaign: %zu runs, %zu fault fires, %zu failing schedules\n",
              result.runs, result.total_fault_fires,
              result.failures.size());
  {
    char note[128];
    std::snprintf(note, sizeof(note),
                  "campaign: %zu seeds, %zu fires, %zu failures", seeds,
                  result.total_fault_fires, result.failures.size());
    AppendLedger(run_ledger, base_seed,
                 workload.empty() ? "all" : workload, note,
                 result.failures.empty() ? 0 : 1);
  }
  if (result.failures.empty()) {
    std::printf("OK: all invariants held\n");
    return 0;
  }

  size_t repro_index = 0;
  for (const chaos::ViolationReport& failure : result.failures) {
    chaos::RunConfig minimal = failure.config;
    minimal.schedule = failure.minimal;
    const std::string repro = chaos::RunConfigToJson(minimal);
    std::fprintf(stderr,
                 "FAILURE %zu (workload %s, %zu faults shrunk to %zu):\n",
                 repro_index, failure.config.workload.c_str(),
                 failure.config.schedule.size(), failure.minimal.size());
    PrintViolations(failure.violations);
    std::fprintf(stderr, "  repro: --schedule='%s'\n", repro.c_str());
    if (!out_dir.empty()) {
      const std::string path =
          out_dir + "/repro_" + std::to_string(repro_index) + ".json";
      if (!WriteFile(path, repro)) {
        std::fprintf(stderr, "chaos_runner: cannot write %s\n",
                     path.c_str());
      }
      // The flight-record dump captured at the violation: the last-N
      // events per thread of the failing (shrunk) run, same format as a
      // crash report.
      if (!failure.flight_record.empty()) {
        const std::string flight_path =
            out_dir + "/repro_" + std::to_string(repro_index) +
            ".flight.json";
        if (!WriteFile(flight_path, failure.flight_record)) {
          std::fprintf(stderr, "chaos_runner: cannot write %s\n",
                       flight_path.c_str());
        }
      }
    }
    ++repro_index;
  }
  return 1;
}
