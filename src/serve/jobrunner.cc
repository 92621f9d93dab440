#include "serve/jobrunner.h"

#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/checkpoint.h"
#include "data/csv.h"
#include "data/generators.h"

namespace multiclust {
namespace serve {

Result<std::string> DatasetCache::KeyFor(const JobSpec& spec) {
  if (!spec.scenario.empty()) {
    return "gen:" + spec.scenario + ":" + std::to_string(spec.scenario_n) +
           ":" + std::to_string(spec.seed);
  }
  struct stat st;
  if (::stat(spec.input_csv.c_str(), &st) != 0) {
    return Status::NotFound("dataset: cannot stat " + spec.input_csv);
  }
  return "csv:" + spec.input_csv + ":" +
         std::to_string(static_cast<long long>(st.st_size)) + ":" +
         std::to_string(static_cast<long long>(st.st_mtime)) + ":" +
         spec.label_column;
}

Result<std::shared_ptr<const Dataset>> DatasetCache::Resolve(
    const JobSpec& spec, bool* hit) {
  if (hit != nullptr) *hit = false;
  MC_ASSIGN_OR_RETURN(std::string key, KeyFor(spec));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->key == key) {
        lru_.splice(lru_.begin(), lru_, it);
        ++hits_;
        if (hit != nullptr) *hit = true;
        return lru_.front().dataset;
      }
    }
  }
  // Load outside the lock: a slow CSV ingest must not serialize cache
  // lookups of unrelated jobs. A racing double-load of the same key is
  // benign (both loads are identical; the second insert wins).
  MC_ASSIGN_OR_RETURN(Dataset loaded, LoadDataset(spec));
  auto dataset = std::make_shared<const Dataset>(std::move(loaded));
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  lru_.push_front(Entry{std::move(key), dataset});
  while (lru_.size() > capacity_) lru_.pop_back();
  return dataset;
}

size_t DatasetCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

uint64_t DatasetCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t DatasetCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

Result<Dataset> LoadDataset(const JobSpec& spec) {
  if (!spec.scenario.empty()) {
    if (spec.scenario == "customer") {
      return MakeCustomerScenario(spec.scenario_n, spec.seed);
    }
    return Status::InvalidArgument("dataset: unknown scenario '" +
                                   spec.scenario + "'");
  }
  CsvOptions csv;
  csv.label_column = spec.label_column;
  return ReadCsv(spec.input_csv, csv);
}

Result<DiscoveryOptions> MakeDiscoveryOptions(const JobSpec& spec) {
  DiscoveryOptions options;
  MC_RETURN_IF_ERROR(ParseStrategyName(spec.strategy, &options.strategy));
  options.num_solutions = spec.solutions;
  options.k = spec.k;
  options.seed = spec.seed;
  options.budget.deadline_ms = spec.deadline_ms;
  options.budget.max_iterations = spec.max_iterations;
  return options;
}

uint64_t WorkFingerprint(const Matrix& data, const JobSpec& spec) {
  Fingerprint fp;
  fp.Mix(data);
  fp.Mix(spec.strategy);
  fp.Mix(static_cast<uint64_t>(spec.solutions));
  fp.Mix(static_cast<uint64_t>(spec.k));
  fp.Mix(spec.seed);
  return fp.value();
}

std::string FingerprintHex(uint64_t fingerprint) {
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, fingerprint);
  return hex;
}

RunOutcome JobRunner::Run(const RunRequest& request) const {
  RunOutcome out;

  // 1. Resolve the dataset (pre-resolved, cached, or fresh ingest).
  if (request.dataset != nullptr) {
    out.dataset = request.dataset;
  } else if (cache_ != nullptr) {
    auto resolved = cache_->Resolve(request.spec, &out.cache_hit);
    if (!resolved.ok()) {
      out.status = resolved.status();
      return out;
    }
    out.dataset = std::move(resolved).value();
  } else {
    auto loaded = LoadDataset(request.spec);
    if (!loaded.ok()) {
      out.status = loaded.status();
      return out;
    }
    out.dataset = std::make_shared<const Dataset>(std::move(loaded).value());
  }

  // 2. Pipeline configuration + work fingerprint.
  auto options_or = MakeDiscoveryOptions(request.spec);
  if (!options_or.ok()) {
    out.status = options_or.status();
    return out;
  }
  DiscoveryOptions options = std::move(options_or).value();
  options.budget.cancel = request.cancel;
  out.fingerprint = WorkFingerprint(out.dataset->data(), request.spec);

  // 3. Checkpoint channel.
  std::unique_ptr<Checkpointer> checkpointer;
  if (!request.checkpoint_dir.empty()) {
    checkpointer = std::make_unique<Checkpointer>(request.checkpoint_dir);
    if (!request.resume) {
      Status cleared = checkpointer->Clear();
      if (!cleared.ok()) {
        out.status = cleared;
        return out;
      }
    }
    options.budget.checkpoint = checkpointer.get();
  }

  // 4. Run, with job-level transient retries. The pipeline retries and
  // falls back internally first; only a still-recoverable failure
  // (kComputationError) reaches this loop. Each retry re-runs under a
  // RetrySeed-derived seed after a cancellable backoff sleep, so the
  // whole schedule — seeds and delays — is a pure function of the spec
  // and the policy.
  Backoff backoff(request.job_retry);
  Result<DiscoveryReport> report = Status::Internal("jobrunner: never ran");
  while (true) {
    DiscoveryOptions attempt = options;
    attempt.seed = RetrySeed(options.seed, backoff.attempts());
    report = DiscoverMultipleClusterings(out.dataset->data(), attempt);
    if (report.ok() ||
        !request.job_retry.ShouldRetry(report.status(), backoff.attempts())) {
      break;
    }
    const double delay_ms = backoff.NextDelayMs();
    if (!SleepWithCancel(delay_ms, request.cancel)) {
      report = Status::Cancelled("jobrunner: cancelled during retry backoff");
      break;
    }
  }
  out.job_retries = backoff.attempts();

  if (checkpointer != nullptr) {
    out.snapshots_written = checkpointer->snapshots_written();
    out.checkpoint_warnings = checkpointer->TakeWarnings();
  }
  if (!report.ok()) {
    out.status = report.status();
    return out;
  }
  out.report = std::move(report).value();
  return out;
}

}  // namespace serve
}  // namespace multiclust
