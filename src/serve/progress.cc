#include "serve/progress.h"

namespace multiclust {
namespace serve {

namespace {

/// The calling thread's current channel. Thread-local rather than a map
/// lookup per event: the pipeline can emit at iteration rates, and the
/// emitting thread is the identity anyway.
thread_local std::shared_ptr<void> t_channel;

}  // namespace

JobProgressMux::~JobProgressMux() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, channel] : channels_) {
    if (channel->out != nullptr) std::fclose(channel->out);
    channel->out = nullptr;
  }
}

double JobProgressMux::ElapsedMs(const Channel& channel) const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - channel.start)
      .count();
}

Status JobProgressMux::BeginJob(const std::string& job_id,
                                const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("progress: cannot open " + path);
  }
  auto channel = std::make_shared<Channel>();
  channel->job_id = job_id;
  channel->out = out;
  channel->start = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    channels_[job_id] = channel;
  }
  t_channel = channel;
  return Status::OK();
}

void JobProgressMux::FinishJob(const std::string& phase) {
  auto channel = std::static_pointer_cast<Channel>(t_channel);
  t_channel.reset();
  if (channel == nullptr || channel->out == nullptr) return;
  telemetry::ProgressEvent event;
  event.stage = "run";
  event.phase = phase;
  event.terminal = true;
  const std::string line = telemetry::ProgressEventJson(
      event, ++channel->seq, ElapsedMs(*channel), channel->job_id);
  std::fwrite(line.data(), 1, line.size(), channel->out);
  std::fputc('\n', channel->out);
  std::fclose(channel->out);
  channel->out = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  channels_.erase(channel->job_id);
}

void JobProgressMux::AbandonJob() {
  auto channel = std::static_pointer_cast<Channel>(t_channel);
  t_channel.reset();
  if (channel == nullptr) return;
  if (channel->out != nullptr) {
    std::fclose(channel->out);
    channel->out = nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  channels_.erase(channel->job_id);
}

void JobProgressMux::OnEvent(const telemetry::ProgressEvent& event) {
  auto channel = std::static_pointer_cast<Channel>(t_channel);
  if (channel == nullptr || channel->out == nullptr) return;
  // The pipeline's own terminal event never fires inside a job (the CLI
  // emits it, the daemon's FinishJob does) — but drop the flag defensively
  // so the per-job stream keeps its exactly-one-terminal contract.
  telemetry::ProgressEvent tagged = event;
  tagged.terminal = false;
  const std::string line = telemetry::ProgressEventJson(
      tagged, ++channel->seq, ElapsedMs(*channel), channel->job_id);
  std::fwrite(line.data(), 1, line.size(), channel->out);
  std::fputc('\n', channel->out);
  if (event.phase != "iteration") std::fflush(channel->out);
}

}  // namespace serve
}  // namespace multiclust
