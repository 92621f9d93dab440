#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/atomicio.h"
#include "common/report.h"
#include "common/runledger.h"

namespace multiclust {
namespace serve {

namespace {

// MSG_NOSIGNAL: a client that hung up must surface as EPIPE on this call,
// not as a process-killing SIGPIPE.
void SendLine(int fd, const std::string& line) {
  std::string out = line;
  out.push_back('\n');
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // client gone; nothing sane to do with the rest
    }
    off += static_cast<size_t>(n);
  }
}

// Sends every complete line of `path` past *offset and advances *offset.
// Partial trailing lines stay unsent until their newline lands.
void StreamNewLines(const std::string& path, size_t* offset, int fd) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<size_t>(in.tellg());
  if (size <= *offset) return;
  in.seekg(static_cast<std::streamoff>(*offset));
  std::string chunk(size - *offset, '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  const size_t last_newline = chunk.rfind('\n');
  if (last_newline == std::string::npos) return;
  size_t start = 0;
  while (start <= last_newline) {
    const size_t nl = chunk.find('\n', start);
    SendLine(fd, chunk.substr(start, nl - start));
    start = nl + 1;
  }
  *offset += last_newline + 1;
}

std::string WorkloadName(const JobSpec& spec) {
  if (!spec.scenario.empty()) {
    return spec.scenario + ":" + std::to_string(spec.scenario_n);
  }
  return spec.input_csv;
}

JobState StateForLedgerStatus(const std::string& status) {
  if (status == "ok") return JobState::kDone;
  if (status == "cancelled") return JobState::kCancelled;
  if (status == "evicted" || status == "rejected") return JobState::kEvicted;
  return JobState::kError;
}

}  // namespace

Daemon::Daemon(const DaemonOptions& options)
    : options_(options),
      queue_(options.quota),
      cache_(options.dataset_cache_capacity),
      runner_(&cache_) {}

Daemon::~Daemon() {
  if (started_.load()) Shutdown();
}

Status Daemon::AppendLedger(const std::shared_ptr<Job>& job,
                            const std::string& status, int exit_code,
                            const std::string& note) {
  ledger::RunRecord rec;
  rec.run_id = ledger::GenerateRunId(job->spec.seed);
  rec.tool = "discoverd";
  rec.status = status;
  rec.exit_code = exit_code;
  rec.seed = job->spec.seed;
  if (job->result.fingerprint != 0) {
    rec.fingerprint = FingerprintHex(job->result.fingerprint);
  }
  rec.workload = WorkloadName(job->spec);
  rec.strategy = job->spec.strategy;
  if (status == "ok") rec.objective = job->result.objective;
  rec.report_path = job->result.report_path;
  rec.checkpoint_dir = JobDir(job->id) + "/ckpt";
  rec.note = note;
  rec.job = job->id;
  rec.tenant = job->tenant;
  return ledger::Append(ledger_path(), rec);
}

Status Daemon::PersistAccepted(const std::shared_ptr<Job>& job) {
  const std::string dir = JobDir(job->id);
  MC_RETURN_IF_ERROR(atomicio::EnsureDir(dir, "serve"));
  Request req;
  req.op = "submit";
  req.tenant = job->tenant;
  req.job_id = job->id;
  req.spec = job->spec;
  req.has_spec = true;
  atomicio::AtomicWriteOptions wopts;
  wopts.what = "serve";
  wopts.fsync_dir = true;
  MC_RETURN_IF_ERROR(atomicio::AtomicWriteFile(dir, "request.json",
                                               RequestJson(req) + "\n",
                                               wopts));
  return AppendLedger(job, "queued", 0, "");
}

Status Daemon::RecoverJobs() {
  recovered_ = 0;
  std::vector<ledger::RunRecord> records;
  size_t skipped = 0;
  Status read = ledger::Read(ledger_path(), &records, &skipped);
  if (read.code() == StatusCode::kNotFound) return Status::OK();  // fresh
  MC_RETURN_IF_ERROR(read);
  if (skipped > 0) {
    std::fprintf(stderr, "discoverd: recovery skipped %zu torn/foreign "
                         "ledger line(s)\n", skipped);
  }
  // Fold to each job's latest record; first-accept order keeps the
  // re-enqueue sequence deterministic across recoveries.
  std::vector<std::string> order;
  std::map<std::string, ledger::RunRecord> last;
  for (const ledger::RunRecord& r : records) {
    if (r.job.empty()) continue;
    if (last.find(r.job) == last.end()) order.push_back(r.job);
    last[r.job] = r;
  }
  for (const std::string& id : order) {
    const ledger::RunRecord& rec = last[id];
    auto job = std::make_shared<Job>();
    job->id = id;
    job->tenant = rec.tenant.empty() ? "default" : rec.tenant;
    if (ledger::IsTerminalStatus(rec.status)) {
      job->state = StateForLedgerStatus(rec.status);
      job->result.report_path = rec.report_path;
      if (!std::isnan(rec.objective)) job->result.objective = rec.objective;
      job->result.error = rec.note;
      queue_.RegisterRecovered(job);
      continue;
    }
    // Accepted but not finished: reload the durable request and resume.
    const std::string request_path = JobDir(id) + "/request.json";
    std::string line;
    {
      std::ifstream in(request_path);
      if (!in || !std::getline(in, line)) line.clear();
    }
    Result<Request> req = line.empty()
                              ? Result<Request>(Status::NotFound(
                                    "serve: missing " + request_path))
                              : ParseRequest(line);
    if (!req.ok()) {
      job->state = JobState::kError;
      job->result.error = "unrecoverable: " + req.status().ToString();
      queue_.RegisterRecovered(job);
      (void)AppendLedger(job, "error", 1, job->result.error);
      continue;
    }
    job->spec = req->spec;
    job->resume = true;
    queue_.EnqueueRecovered(job);
    (void)AppendLedger(job, "resumed", 0, "recovered after restart");
    ++recovered_;
  }
  return Status::OK();
}

Status Daemon::Start() {
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("serve: empty socket path");
  }
  if (options_.root.empty()) {
    return Status::InvalidArgument("serve: empty spool root");
  }
  MC_RETURN_IF_ERROR(atomicio::EnsureDir(options_.root, "serve"));
  MC_RETURN_IF_ERROR(atomicio::EnsureDir(options_.root + "/jobs", "serve"));
  MC_RETURN_IF_ERROR(RecoverJobs());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("serve: socket path too long (max " +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   "): " + options_.socket_path);
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (::pipe(wake_pipe_) != 0) {
    return Status::IoError("serve: pipe: " + std::string(strerror(errno)));
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("serve: socket: " + std::string(strerror(errno)));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a kill
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::IoError("serve: bind " + options_.socket_path + ": " +
                           std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::IoError("serve: listen: " + std::string(strerror(errno)));
  }

  telemetry::SetProgressSink(&mux_);
  started_.store(true);
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&Daemon::WorkerLoop, this);
  }
  watchdog_ = std::thread(&Daemon::WatchdogLoop, this);
  acceptor_ = std::thread(&Daemon::AcceptLoop, this);
  return Status::OK();
}

void Daemon::RequestDrain() {
  // Async-signal-safe: one relaxed store + one write(2).
  draining_.store(true, std::memory_order_relaxed);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'd';
    ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
    (void)rc;  // a full pipe still wakes the poller; nothing to handle
  }
}

void Daemon::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  Shutdown();
}

void Daemon::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (shut_down_ || !started_.load()) return;
    shut_down_ = true;
  }
  RequestDrain();
  if (acceptor_.joinable()) acceptor_.join();
  // Stop dispatch, then cancel: running jobs flush a final checkpoint and
  // come back kCancelled; the drain path skips their terminal ledger line
  // so the durable queued/resumed state stands for the next Start().
  queue_.Close();
  queue_.CancelAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  watchdog_stop_.store(true);
  if (watchdog_.joinable()) watchdog_.join();
  // The acceptor is joined, so no connection starts any more. Join the
  // rest outside conn_mu_: a finishing thread takes it to report itself.
  std::unordered_map<std::thread::id, std::thread> open;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    open.swap(connections_);
  }
  for (auto& [id, c] : open) c.join();
  telemetry::SetProgressSink(nullptr);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Daemon::AcceptLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    ReapConnections();
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;
    if ((fds[0].revents & POLLIN) != 0) {
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) continue;
      // Registered under conn_mu_, which the new thread needs before it
      // can report itself finished.
      std::lock_guard<std::mutex> lock(conn_mu_);
      std::thread t(&Daemon::HandleConnection, this, cfd);
      const std::thread::id id = t.get_id();
      connections_.emplace(id, std::move(t));
    }
  }
  draining_.store(true, std::memory_order_relaxed);
}

void Daemon::ReapConnections() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  // A finished thread only has to return, so joining it here is brief.
  for (const std::thread::id id : finished_connections_) {
    const auto it = connections_.find(id);
    it->second.join();
    connections_.erase(it);
  }
  finished_connections_.clear();
}

void Daemon::WatchdogLoop() {
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    SleepWithCancel(options_.watchdog_period_ms, nullptr);
    std::vector<std::shared_ptr<Job>> evicted;
    queue_.Sweep(options_.watchdog_grace_ms, &evicted);
    for (const std::shared_ptr<Job>& job : evicted) {
      (void)AppendLedger(job, "evicted", 1, "queue ttl expired");
    }
  }
}

void Daemon::WorkerLoop() {
  while (true) {
    std::shared_ptr<Job> job = queue_.Take();
    if (job == nullptr) return;  // queue closed and drained
    ExecuteJob(job);
  }
}

void Daemon::ExecuteJob(const std::shared_ptr<Job>& job) {
  const std::string dir = JobDir(job->id);
  Status spool = atomicio::EnsureDir(dir, "serve");
  if (spool.ok()) {
    Status began = mux_.BeginJob(job->id, dir + "/progress.ndjson");
    if (!began.ok()) {
      std::fprintf(stderr, "discoverd: %s\n", began.ToString().c_str());
    }
  }

  RunRequest request;
  request.spec = job->spec;
  request.checkpoint_dir = dir + "/ckpt";
  request.resume = job->resume;
  request.cancel = &job->cancel;
  request.job_retry = options_.job_retry;
  const RunOutcome out = runner_.Run(request);

  JobResult result;
  result.fingerprint = out.fingerprint;

  if (out.status.ok()) {
    // The report excludes the process-wide metrics/spans snapshots: the
    // registry aggregates every concurrent job, and bench_diff --report
    // ignores those keys anyway — what remains is the bit-stable payload
    // a CLI run of the same spec produces.
    ReportJsonOptions ropts;
    ropts.include_metrics = false;
    ropts.include_spans = false;
    const std::string report_path = dir + "/report.json";
    Status wrote = WriteDiscoveryReport(report_path, out.report, ropts);
    if (wrote.ok()) {
      result.report_path = report_path;
      result.objective = out.report.objective.mean_quality;
      result.degraded = out.report.degraded;
      mux_.FinishJob("complete");
      queue_.Finish(job, JobState::kDone, result);
      (void)AppendLedger(job, "ok", 0, "");
      return;
    }
    result.error = wrote.ToString();
    mux_.FinishJob("error");
    queue_.Finish(job, JobState::kError, result);
    (void)AppendLedger(job, "error", 1, result.error);
    return;
  }

  const StatusCode code = out.status.code();
  if (code == StatusCode::kCancelled &&
      draining_.load(std::memory_order_relaxed)) {
    // Drain suspension: the pipeline flushed a final checkpoint on the
    // way out. NOT ledgered terminal — the durable queued/resumed state
    // stands and the next Start() resumes the job bit-identically.
    mux_.AbandonJob();
    result.error = "suspended by drain";
    queue_.Finish(job, JobState::kCancelled, result);
    return;
  }
  if (code == StatusCode::kAborted && job->resumes < options_.max_resumes) {
    // Simulated crash at a persistence point (a chaos kCrash fault
    // against the live daemon): the snapshot is on disk, so re-enqueue in
    // place with resume=true instead of failing the job.
    mux_.AbandonJob();
    queue_.MarkResumed(job, out.fingerprint);
    (void)AppendLedger(job, "resumed", 0, "in-daemon resume after fault");
    queue_.EnqueueRecovered(job);
    return;
  }
  result.error = out.status.ToString();
  mux_.FinishJob("error");
  if (code == StatusCode::kCancelled) {
    queue_.Finish(job, JobState::kCancelled, result);
    (void)AppendLedger(job, "cancelled", 130,
                       job->cancel_cause.empty() ? "cancelled"
                                                 : job->cancel_cause);
    return;
  }
  queue_.Finish(job, JobState::kError, result);
  (void)AppendLedger(job, "error", 1, result.error);
}

void Daemon::HandleConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (!line.empty()) HandleRequest(line, fd);
    }
    pollfd p{fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      if (draining_.load(std::memory_order_relaxed)) break;
      continue;
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conn_mu_);
  finished_connections_.push_back(std::this_thread::get_id());
}

void Daemon::HandleRequest(const std::string& line, int fd) {
  Result<Request> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    const std::string message = parsed.status().ToString();
    const bool version_problem =
        message.find("schema_version") != std::string::npos ||
        message.find("kind") != std::string::npos;
    SendLine(fd, ErrorResponse("", version_problem ? "protocol"
                                                   : "bad_request",
                               message));
    return;
  }
  const Request& request = *parsed;
  if (request.op == "submit") {
    HandleSubmit(request, fd);
  } else if (request.op == "status") {
    HandleStatus(request, fd);
  } else if (request.op == "result") {
    HandleResult(request, fd);
  } else if (request.op == "cancel") {
    HandleCancel(request, fd);
  } else if (request.op == "watch") {
    HandleWatch(request, fd);
  } else if (request.op == "stats") {
    HandleStats(fd);
  } else if (request.op == "ping") {
    json::Writer w = ResponseWriter("ping", /*ok=*/true);
    w.EndObject();
    SendLine(fd, std::move(w).str());
  } else if (request.op == "drain") {
    json::Writer w = ResponseWriter("drain", /*ok=*/true);
    w.Key("draining");
    w.Bool(true);
    w.EndObject();
    SendLine(fd, std::move(w).str());
    RequestDrain();
  }
}

void Daemon::HandleSubmit(const Request& request, int fd) {
  if (draining_.load(std::memory_order_relaxed)) {
    SendLine(fd, ErrorResponse("submit", "draining",
                               "daemon is draining; resubmit after restart"));
    return;
  }
  auto job = std::make_shared<Job>();
  job->id = ledger::GenerateRunId(request.spec.seed, "job");
  job->tenant = request.tenant;
  job->spec = request.spec;
  job->published = false;
  const AdmissionDecision decision = queue_.Offer(job);
  if (!decision.admitted) {
    json::Writer w = ResponseWriter("submit", /*ok=*/true);
    w.Key("state");
    w.String("rejected");
    w.Key("reason");
    w.String(decision.reason);
    w.Key("retry_after_ms");
    w.Double(decision.retry_after_ms);
    w.EndObject();
    SendLine(fd, std::move(w).str());
    return;
  }
  Status durable = PersistAccepted(job);
  if (!durable.ok()) {
    // Roll the admission back: evict the (unpublished, so never-started)
    // job and fail the submit — an unacknowledged job must leave nothing.
    (void)queue_.Cancel(job->id, "durability", nullptr);
    SendLine(fd, ErrorResponse("submit", "internal", durable.ToString()));
    return;
  }
  queue_.MarkPublished(job);
  json::Writer w = ResponseWriter("submit", /*ok=*/true);
  w.Key("job_id");
  w.String(job->id);
  w.Key("state");
  w.String("queued");
  w.EndObject();
  SendLine(fd, std::move(w).str());
}

namespace {

// Shared body of the status/result responses.
void AppendJobInfo(const JobInfo& info, const std::string& job_id,
                   json::Writer* w) {
  w->Key("job_id");
  w->String(job_id);
  w->Key("state");
  w->String(JobStateName(info.state));
  w->Key("tenant");
  w->String(info.tenant);
  if (!info.result.error.empty()) {
    w->Key("message");
    w->String(info.result.error);
  }
  if (!info.cancel_cause.empty()) {
    w->Key("cancel_cause");
    w->String(info.cancel_cause);
  }
  if (!info.result.report_path.empty()) {
    w->Key("report");
    w->String(info.result.report_path);
  }
  if (info.state == JobState::kDone) {
    w->Key("objective");
    w->Double(info.result.objective);
    w->Key("degraded");
    w->Bool(info.result.degraded);
  }
  if (info.result.fingerprint != 0) {
    w->Key("fingerprint");
    w->String(FingerprintHex(info.result.fingerprint));
  }
}

}  // namespace

void Daemon::HandleStatus(const Request& request, int fd) {
  const JobInfo info = queue_.Info(request.job_id);
  if (!info.found) {
    SendLine(fd, ErrorResponse("status", "not_found",
                               "unknown job '" + request.job_id + "'"));
    return;
  }
  json::Writer w = ResponseWriter("status", /*ok=*/true);
  AppendJobInfo(info, request.job_id, &w);
  w.EndObject();
  SendLine(fd, std::move(w).str());
}

void Daemon::HandleResult(const Request& request, int fd) {
  const JobInfo info = queue_.Info(request.job_id);
  if (!info.found) {
    SendLine(fd, ErrorResponse("result", "not_found",
                               "unknown job '" + request.job_id + "'"));
    return;
  }
  json::Writer w = ResponseWriter("result", /*ok=*/true);
  AppendJobInfo(info, request.job_id, &w);
  if (!IsTerminalJobState(info.state)) {
    w.Key("pending");
    w.Bool(true);
  }
  w.EndObject();
  SendLine(fd, std::move(w).str());
}

void Daemon::HandleCancel(const Request& request, int fd) {
  JobState after;
  bool evicted_now = false;
  if (!queue_.Cancel(request.job_id, "client", &after, &evicted_now)) {
    SendLine(fd, ErrorResponse("cancel", "not_found",
                               "unknown job '" + request.job_id + "'"));
    return;
  }
  if (evicted_now) {
    const std::shared_ptr<Job> job = queue_.Find(request.job_id);
    if (job != nullptr) {
      (void)AppendLedger(job, "evicted", 1, "cancelled while queued");
    }
  }
  json::Writer w = ResponseWriter("cancel", /*ok=*/true);
  w.Key("job_id");
  w.String(request.job_id);
  w.Key("state");
  w.String(JobStateName(after));
  w.EndObject();
  SendLine(fd, std::move(w).str());
}

void Daemon::HandleWatch(const Request& request, int fd) {
  JobInfo info = queue_.Info(request.job_id);
  if (!info.found) {
    SendLine(fd, ErrorResponse("watch", "not_found",
                               "unknown job '" + request.job_id + "'"));
    return;
  }
  const std::string path = JobDir(request.job_id) + "/progress.ndjson";
  size_t offset = 0;
  while (true) {
    StreamNewLines(path, &offset, fd);
    info = queue_.Info(request.job_id);
    if (IsTerminalJobState(info.state)) {
      // One more pass: the terminal event may have landed after the read.
      StreamNewLines(path, &offset, fd);
      break;
    }
    if (draining_.load(std::memory_order_relaxed)) break;
    SleepWithCancel(20.0, nullptr);
  }
  json::Writer w = ResponseWriter("watch", /*ok=*/true);
  AppendJobInfo(info, request.job_id, &w);
  w.EndObject();
  SendLine(fd, std::move(w).str());
}

void Daemon::HandleStats(int fd) {
  const QueueStats stats = queue_.stats();
  json::Writer w = ResponseWriter("stats", /*ok=*/true);
  w.Key("queued");
  w.Uint(stats.queued);
  w.Key("running");
  w.Uint(stats.running);
  w.Key("accepted_total");
  w.Uint(stats.accepted_total);
  w.Key("rejected_total");
  w.Uint(stats.rejected_total);
  w.Key("evicted_total");
  w.Uint(stats.evicted_total);
  w.Key("done_total");
  w.Uint(stats.done_total);
  w.Key("error_total");
  w.Uint(stats.error_total);
  w.Key("cancelled_total");
  w.Uint(stats.cancelled_total);
  w.Key("max_queued_seen");
  w.Uint(stats.max_queued_seen);
  w.Key("max_queue_depth");
  w.Uint(options_.quota.max_queue_depth);
  w.Key("cache_hits");
  w.Uint(cache_.hits());
  w.Key("cache_misses");
  w.Uint(cache_.misses());
  w.Key("cache_entries");
  w.Uint(cache_.size());
  w.Key("recovered_jobs");
  w.Uint(recovered_);
  w.Key("draining");
  w.Bool(draining_.load(std::memory_order_relaxed));
  w.EndObject();
  SendLine(fd, std::move(w).str());
}

}  // namespace serve
}  // namespace multiclust
