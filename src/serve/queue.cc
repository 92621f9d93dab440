#include "serve/queue.h"

#include <algorithm>

namespace multiclust {
namespace serve {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kError:
      return "error";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kEvicted:
      return "evicted";
  }
  return "unknown";
}

bool IsTerminalJobState(JobState state) {
  return state == JobState::kDone || state == JobState::kError ||
         state == JobState::kCancelled || state == JobState::kEvicted;
}

size_t JobQueue::RunningOf(const std::string& tenant) const {
  size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning && job->tenant == tenant) ++n;
  }
  return n;
}

AdmissionDecision JobQueue::Offer(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionDecision decision;
  // The hint is a pure function of the load at rejection time: identical
  // overload states answer identically, so clients can be tested against
  // exact values and a thundering herd spreads by its own (deterministic,
  // per-client-seeded) jitter rather than by server randomness.
  size_t running = 0;
  for (const auto& [id, j] : jobs_) {
    if (j->state == JobState::kRunning) ++running;
  }
  const double hint =
      policy_.retry_after_base_ms * static_cast<double>(1 + queue_.size() +
                                                        running);
  if (closed_) {
    decision.reason = "draining";
    decision.retry_after_ms = hint;
    ++stats_.rejected_total;
    return decision;
  }
  if (queue_.size() >= policy_.max_queue_depth) {
    decision.reason = "queue_full";
    decision.retry_after_ms = hint;
    ++stats_.rejected_total;
    return decision;
  }
  if (policy_.max_active_per_tenant > 0) {
    size_t active = 0;
    for (const auto& [id, j] : jobs_) {
      if (j->tenant == job->tenant && (j->state == JobState::kQueued ||
                                       j->state == JobState::kRunning)) {
        ++active;
      }
    }
    if (active >= policy_.max_active_per_tenant) {
      decision.reason = "tenant_quota";
      decision.retry_after_ms = hint;
      ++stats_.rejected_total;
      return decision;
    }
  }
  job->state = JobState::kQueued;
  job->enqueued_at = std::chrono::steady_clock::now();
  queue_.push_back(job);
  jobs_[job->id] = job;
  ++stats_.accepted_total;
  stats_.max_queued_seen = std::max(stats_.max_queued_seen, queue_.size());
  decision.admitted = true;
  cv_.notify_one();
  return decision;
}

std::shared_ptr<Job> JobQueue::Take() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // FIFO, but skip over tenants at their running cap: a hot tenant
    // cannot starve the queue head for everyone else.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const std::shared_ptr<Job>& job = *it;
      if (!job->published) continue;
      if (policy_.max_running_per_tenant > 0 &&
          RunningOf(job->tenant) >= policy_.max_running_per_tenant) {
        continue;
      }
      std::shared_ptr<Job> taken = job;
      queue_.erase(it);
      taken->state = JobState::kRunning;
      taken->started_at = std::chrono::steady_clock::now();
      return taken;
    }
    if (closed_) return nullptr;
    cv_.wait(lock);
  }
}

void JobQueue::MarkPublished(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  job->published = true;
  cv_.notify_all();
}

void JobQueue::Finish(const std::shared_ptr<Job>& job, JobState terminal,
                      const JobResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  job->state = terminal;
  job->result = result;
  switch (terminal) {
    case JobState::kDone:
      ++stats_.done_total;
      break;
    case JobState::kError:
      ++stats_.error_total;
      break;
    case JobState::kCancelled:
      ++stats_.cancelled_total;
      break;
    default:
      break;
  }
  // A finished running job may unblock a same-tenant queued job that
  // Take() skipped at the running cap.
  cv_.notify_all();
}

void JobQueue::MarkResumed(const std::shared_ptr<Job>& job,
                           uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  job->result.fingerprint = fingerprint;
  ++job->resumes;
  job->resume = true;
}

bool JobQueue::Cancel(const std::string& job_id, const std::string& cause,
                      JobState* state_after, bool* evicted_now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (evicted_now != nullptr) *evicted_now = false;
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  const std::shared_ptr<Job>& job = it->second;
  if (job->state == JobState::kQueued) {
    if (evicted_now != nullptr) *evicted_now = true;
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job),
                 queue_.end());
    job->state = JobState::kEvicted;
    job->cancel_cause = cause;
    ++stats_.evicted_total;
  } else if (job->state == JobState::kRunning) {
    job->cancel_cause = cause;
    job->cancel.Cancel();
  }
  if (state_after != nullptr) *state_after = job->state;
  return true;
}

std::vector<std::string> JobQueue::Sweep(
    double grace_ms, std::vector<std::shared_ptr<Job>>* evicted) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::string> cancelled;
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::kRunning || job->spec.deadline_ms <= 0.0 ||
        job->cancel.cancelled()) {
      continue;
    }
    const double elapsed =
        std::chrono::duration<double, std::milli>(now - job->started_at)
            .count();
    if (elapsed > job->spec.deadline_ms + grace_ms) {
      job->cancel_cause = "watchdog";
      job->cancel.Cancel();
      cancelled.push_back(id);
    }
  }
  if (policy_.queue_ttl_ms > 0.0) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      const std::shared_ptr<Job>& job = *it;
      const double waited =
          std::chrono::duration<double, std::milli>(now - job->enqueued_at)
              .count();
      if (waited > policy_.queue_ttl_ms) {
        job->state = JobState::kEvicted;
        job->cancel_cause = "queue_ttl";
        ++stats_.evicted_total;
        if (evicted != nullptr) evicted->push_back(job);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return cancelled;
}

std::shared_ptr<Job> JobQueue::Find(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobInfo JobQueue::Info(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  JobInfo info;
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return info;
  const Job& job = *it->second;
  info.found = true;
  info.state = job.state;
  info.tenant = job.tenant;
  info.result = job.result;
  info.cancel_cause = job.cancel_cause;
  info.resume = job.resume;
  return info;
}

void JobQueue::RegisterRecovered(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  jobs_[job->id] = job;
}

void JobQueue::EnqueueRecovered(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  job->state = JobState::kQueued;
  job->published = true;
  job->enqueued_at = std::chrono::steady_clock::now();
  queue_.push_back(job);
  jobs_[job->id] = job;
  ++stats_.accepted_total;
  stats_.max_queued_seen = std::max(stats_.max_queued_seen, queue_.size());
  cv_.notify_one();
}

QueueStats JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  QueueStats s = stats_;
  s.queued = queue_.size();
  s.running = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) ++s.running;
  }
  return s;
}

void JobQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

void JobQueue::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kQueued || job->state == JobState::kRunning) {
      job->cancel.Cancel();
    }
  }
}

}  // namespace serve
}  // namespace multiclust
