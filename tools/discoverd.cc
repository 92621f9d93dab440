// discoverd: the crash-safe multi-tenant discovery daemon (see DESIGN.md
// "Serving model & admission control").
//
//   discoverd --socket=/tmp/mc.sock --root=/var/spool/mc [options]
//     --workers=N                 (default 2)
//     --max-queue=N               (queued-job bound, default 16; overload is
//                                  shed with deterministic `rejected`
//                                  responses + retry-after hints, never OOM)
//     --max-active-per-tenant=N   (queued+running quota, default 8)
//     --max-running-per-tenant=N  (concurrency cap, default 2)
//     --retry-after-base-ms=X     (rejection hint scale, default 250)
//     --queue-ttl-ms=X            (evict jobs queued longer than X; 0 = off)
//     --job-retries=N             (in-daemon transient retries per job,
//                                  default 0)
//     --retry-base-ms=X --retry-max-ms=X --retry-jitter=F --retry-seed=S
//                                 (deterministic exponential backoff shape
//                                  for --job-retries)
//     --watchdog-period-ms=X      (default 50)
//     --watchdog-grace-ms=X       (deadline overstay before the watchdog
//                                  cancels a wedged job, default 250)
//     --cache-capacity=N          (dataset LRU entries, default 8)
//     --max-resumes=N             (in-daemon fault-resume cap, default 8)
//     --fault=SITE:KIND:AT[:MAXFIRES]
//                                 (chaos: arm the in-process fault injector
//                                  before serving, e.g.
//                                  dec-kmeans:crash:3:1 — repeatable)
//
// Signal contract: SIGTERM / SIGINT request a graceful drain — stop
// accepting (new submits are rejected with the stable "draining" error
// key), cancel running jobs at their next cooperative guard check (each
// flushes a final checkpoint; none is marked terminal), join everything,
// exit 0. SIGKILL is the tested path, not a failure mode: every
// acknowledged job is durable (request.json + fsynced "queued" ledger
// line) before its accept is sent, so the next start resumes all of them
// bit-identically.
//
// Exit codes: 0 clean drain, 1 startup/runtime error, 2 usage.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault.h"
#include "serve/daemon.h"

using namespace multiclust;

namespace {

// The drain path out of a signal handler: Daemon::RequestDrain is
// async-signal-safe (one atomic store + one write(2) to a self-pipe).
serve::Daemon* g_daemon = nullptr;

extern "C" void HandleDrainSignal(int) {
  if (g_daemon != nullptr) g_daemon->RequestDrain();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket=PATH --root=DIR [--workers=N]\n"
               "          [--max-queue=N] [--max-active-per-tenant=N]\n"
               "          [--max-running-per-tenant=N]\n"
               "          [--retry-after-base-ms=X] [--queue-ttl-ms=X]\n"
               "          [--job-retries=N] [--retry-base-ms=X]\n"
               "          [--retry-max-ms=X] [--retry-jitter=F]\n"
               "          [--retry-seed=S] [--watchdog-period-ms=X]\n"
               "          [--watchdog-grace-ms=X] [--cache-capacity=N]\n"
               "          [--max-resumes=N] [--fault=SITE:KIND:AT[:N]]\n",
               argv0);
  return 2;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Parses --fault=SITE:KIND:AT[:MAXFIRES] and arms the injector.
bool ArmFault(const std::string& value) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t colon = value.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(value.substr(start));
      break;
    }
    parts.push_back(value.substr(start, colon - start));
    start = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4) {
    std::fprintf(stderr, "--fault wants SITE:KIND:AT[:MAXFIRES], got '%s'\n",
                 value.c_str());
    return false;
  }
  FaultSpec spec;
  spec.site = parts[0];
  if (!ParseFaultKind(parts[1], &spec.kind)) {
    std::fprintf(stderr, "--fault: unknown fault kind '%s'\n",
                 parts[1].c_str());
    return false;
  }
  spec.at_iteration = static_cast<size_t>(std::atoll(parts[2].c_str()));
  spec.max_fires =
      parts.size() == 4 ? static_cast<size_t>(std::atoll(parts[3].c_str()))
                        : 1;
  fault::Arm(spec);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::DaemonOptions options;
  std::vector<std::string> fault_flags;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "socket", &value)) {
      options.socket_path = value;
    } else if (ParseFlag(arg, "root", &value)) {
      options.root = value;
    } else if (ParseFlag(arg, "workers", &value)) {
      options.workers = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "max-queue", &value)) {
      options.quota.max_queue_depth =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "max-active-per-tenant", &value)) {
      options.quota.max_active_per_tenant =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "max-running-per-tenant", &value)) {
      options.quota.max_running_per_tenant =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "retry-after-base-ms", &value)) {
      options.quota.retry_after_base_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "queue-ttl-ms", &value)) {
      options.quota.queue_ttl_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "job-retries", &value)) {
      options.job_retry.max_retries =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "retry-base-ms", &value)) {
      options.job_retry.base_delay_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "retry-max-ms", &value)) {
      options.job_retry.max_delay_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "retry-jitter", &value)) {
      options.job_retry.jitter = std::atof(value.c_str());
    } else if (ParseFlag(arg, "retry-seed", &value)) {
      options.job_retry.jitter_seed =
          static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "watchdog-period-ms", &value)) {
      options.watchdog_period_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "watchdog-grace-ms", &value)) {
      options.watchdog_grace_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "cache-capacity", &value)) {
      options.dataset_cache_capacity =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "max-resumes", &value)) {
      options.max_resumes = static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(arg, "fault", &value)) {
      fault_flags.push_back(value);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (options.socket_path.empty() || options.root.empty()) {
    return Usage(argv[0]);
  }
  if (options.workers == 0) {
    std::fprintf(stderr, "--workers must be at least 1\n");
    return 2;
  }

  fault::Reset();
  for (const std::string& flag : fault_flags) {
    if (!ArmFault(flag)) return 2;
  }

  // The drain handlers go in before Start(): Start() recovers spooled jobs
  // and begins listening, and a SIGTERM in that window must drain, not
  // kill. A drain latched before the accept loop runs stops it at once.
  serve::Daemon daemon(options);
  g_daemon = &daemon;
  struct sigaction sa = {};
  sa.sa_handler = HandleDrainSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  Status started = daemon.Start();
  if (!started.ok()) {
    g_daemon = nullptr;
    std::fprintf(stderr, "discoverd: %s\n", started.ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "discoverd: serving on %s (root %s, %zu workers, "
               "%zu recovered)\n",
               options.socket_path.c_str(), options.root.c_str(),
               options.workers, daemon.recovered_jobs());

  daemon.Wait();

  const serve::QueueStats stats = daemon.queue_stats();
  std::fprintf(stderr,
               "discoverd: drained (accepted %zu, done %zu, rejected %zu, "
               "evicted %zu)\n",
               stats.accepted_total, stats.done_total, stats.rejected_total,
               stats.evicted_total);
  g_daemon = nullptr;
  return 0;
}
