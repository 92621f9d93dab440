// The serving-plane session of the traced run: the built discoverd with 2
// workers on a fresh spool root, under a closed loop of 3 client
// connections. 4 of every 5 jobs are small (customer n=300, deckm, k=3,
// seeds cycling over 4 values so the dataset cache hits); the 5th is
// customer n=1500 with auto-k, cancelled on a second connection the moment
// its watch stream shows pipeline.select_k start.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "common/report.h"
#include "serve/client.h"
#include "serve/jobrunner.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

using namespace multiclust;
namespace fs = std::filesystem;

namespace {

constexpr size_t kClients = 3;
constexpr size_t kWorkers = 2;
constexpr size_t kSmallN = 300;
constexpr size_t kCancelN = 1500;
constexpr size_t kSeedCycle = 4;
/// Small-job seeds. They are fixed: a small job's daemon time is mostly one
/// fsynced checkpoint per dec-kmeans iteration, and the iteration count
/// ranges 2-25 across customer seeds, so seed-drawn small jobs would make
/// a run's work depend on its seed. --seed picks the cancel jobs' seeds
/// and where the small cycle starts.
constexpr uint64_t kSmallSeeds[kSeedCycle] = {1, 2, 3, 4};
/// Latency limit of a small job (submit to terminal event).
constexpr double kSloS = 0.25;
/// p95 needs at least this many small jobs in the timed phase.
constexpr size_t kMinSmallJobs = 200;
/// Hard stop of the timed phase.
constexpr double kMaxPhaseS = 45.0;

serve::JobSpec SmallSpec(uint64_t seed) {
  serve::JobSpec spec;
  spec.scenario = "customer";
  spec.scenario_n = kSmallN;
  spec.strategy = "deckm";
  spec.k = 3;
  spec.seed = seed;
  return spec;
}

serve::JobSpec CancelSpec(uint64_t seed) {
  serve::JobSpec spec = SmallSpec(seed);
  spec.scenario_n = kCancelN;
  spec.k = 0;
  return spec;
}

/// A discoverd child process; the destructor drains it (SIGTERM) and
/// waits, escalating to SIGKILL.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { Stop(); }

  bool Start(const std::string& binary, const std::string& dir) {
    socket_ = dir + "/d.sock";
    log_ = dir + "/daemon.log";
    std::vector<std::string> args = {
        binary, "--socket=" + socket_, "--root=" + dir + "/spool",
        "--workers=" + std::to_string(kWorkers)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<std::string> env_strings;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::string(*e).rfind("MULTICLUST_THREADS=", 0) != 0) {
        env_strings.emplace_back(*e);
      }
    }
    env_strings.push_back("MULTICLUST_THREADS=" +
                          std::to_string(kPoolThreads));
    std::vector<char*> envp;
    for (std::string& e : env_strings) envp.push_back(e.data());
    envp.push_back(nullptr);
    const pid_t pid = fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // Only async-signal-safe calls between fork and exec. The daemon is
      // killed if the benchmark process is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int log = open(log_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        dup2(log, 1);
        dup2(log, 2);
      }
      execve(binary.c_str(), argv.data(), envp.data());
      _exit(127);
    }
    pid_ = pid;
    return true;
  }

  /// Polls ping until the daemon answers; false after `timeout_s` or when
  /// the daemon exited.
  bool WaitReady(double timeout_s) {
    const double deadline = Now() + timeout_s;
    while (Now() < deadline) {
      serve::Client client(socket_);
      if (client.Connect().ok()) {
        serve::Request ping;
        ping.op = "ping";
        Result<json::Value> r = client.Call(ping);
        if (r.ok() && r->GetBool("ok", false)) return true;
      }
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = 0;
        return false;
      }
      usleep(1000);
    }
    return false;
  }

  /// Drains the daemon and reaps it; true when it exited with 0.
  bool Stop() {
    if (pid_ <= 0) return true;
    // discoverd installs its SIGTERM handler after it starts answering, and
    // logs "serving on" once the handler is in place.
    for (int i = 0; i < 500 && !Logged("serving on"); ++i) usleep(10000);
    kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 1000 && !exited; ++i) {
      exited = waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) usleep(10000);
    }
    if (!exited) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = 0;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return socket_; }

 private:
  bool Logged(const std::string& needle) const {
    std::ifstream in(log_);
    std::stringstream text;
    text << in.rdbuf();
    return text.str().find(needle) != std::string::npos;
  }

  pid_t pid_ = 0;
  std::string socket_;
  std::string log_;
};

/// One client-side job: what was sent, what came back, and when.
struct JobRecord {
  bool small = true;
  uint64_t seed = 0;
  std::string id;
  std::string state;  ///< final state of the watch response
  double submit = 0.0;
  double ack = 0.0;
  double first_event = 0.0;
  double terminal = 0.0;
  double cancel_sent = 0.0;
  double cancel_ack = 0.0;
};

class ServeSession {
 public:
  ServeSession(const Args& args, double seconds, RunResult* result)
      : args_(args), seconds_(seconds), result_(result) {
    dir_ = args.bin_dir + "/serve-" + std::to_string(getpid());
    root_ = dir_ + "/spool";
    cancel_base_ = 1 + kSeedCycle * args.seed;
    rotation_ = args.seed % kSeedCycle;
  }
  ~ServeSession() {
    daemon_.Stop();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  bool Start() {
    const std::string binary = args_.bin_dir + "/discoverd";
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (!daemon_.Start(binary, dir_) || !daemon_.WaitReady(30.0)) {
      result_->Fail("discoverd did not answer ping (" + binary + ")");
      return false;
    }
    return true;
  }

  void Run() {
    // Warm-up: one small job per seed fills the dataset cache.
    for (uint64_t seed : kSmallSeeds) {
      JobRecord warm;
      warm.seed = seed;
      RunJob(&warm);
      warmup_.push_back(warm);
    }
    const pid_t pid = daemon_.pid();
    const ProcStatus start_status = ReadProcStatus(pid);
    const size_t connections_start = connections_.load();
    const double start = Now();
    std::atomic<size_t> next{0};
    std::atomic<size_t> small_started{0};
    std::mutex records_mu;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        while (true) {
          const double elapsed = Now() - start;
          if (elapsed > kMaxPhaseS ||
              (elapsed >= seconds_ && small_started.load() >= kMinSmallJobs)) {
            return;
          }
          const size_t j = next.fetch_add(1);
          JobRecord record;
          record.small = j % 5 != 4;
          record.seed = record.small
                            ? kSmallSeeds[(j - j / 5 + rotation_) % kSeedCycle]
                            : cancel_base_ + (j / 5) % kSeedCycle;
          if (record.small) small_started.fetch_add(1);
          RunJob(&record);
          std::lock_guard<std::mutex> lock(records_mu);
          records_.push_back(std::move(record));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    elapsed_ = Now() - start;
    end_status_ = ReadProcStatus(pid);
    vm_growth_mb_ = end_status_.vm_size_mb - start_status.vm_size_mb;
    timed_connections_ = connections_.load() - connections_start;
    stats_ = Stats();
    if (!daemon_.Stop()) result_->Fail("discoverd did not drain cleanly");
  }

  // Gates every job and fills the serving-plane metrics.
  void Report() {
    // In-process references, one per small-job seed.
    serve::JobRunner runner;
    std::map<uint64_t, std::vector<std::vector<int>>> reference;
    for (uint64_t seed : kSmallSeeds) {
      serve::RunRequest request;
      request.spec = SmallSpec(seed);
      const serve::RunOutcome out = runner.Run(request);
      if (!out.status.ok()) {
        result_->Fail("reference run: " + out.status.ToString());
        continue;
      }
      reference[seed] = out.report.solutions.Labels();
    }

    std::vector<double> latency;
    std::vector<double> cancel_latency;
    std::vector<double> submit_ack;
    std::vector<double> queue_wait;
    std::vector<double> run;
    std::vector<double> cancel_ack;
    size_t small = 0;
    size_t slo_met = 0;
    for (const JobRecord& r : warmup_) CheckSmall(r, reference);
    for (const JobRecord& r : records_) {
      if (r.ack > 0.0) submit_ack.push_back(r.ack - r.submit);
      if (!r.small) {
        const bool ok = r.state == "cancelled" && r.cancel_sent > 0.0;
        if (!ok) result_->Fail("cancel job ended " + r.state);
        result_->Attempt(ok);
        if (ok) cancel_latency.push_back(r.terminal - r.cancel_sent);
        if (r.cancel_ack > 0.0) cancel_ack.push_back(r.cancel_ack - r.cancel_sent);
        continue;
      }
      ++small;
      if (!CheckSmall(r, reference)) continue;
      latency.push_back(r.terminal - r.submit);
      queue_wait.push_back(r.first_event - r.ack);
      run.push_back(r.terminal - r.first_event);
      if (r.terminal - r.submit <= kSloS) ++slo_met;
    }
    // The books balance once every job is terminal.
    const double accepted = stats_.GetNumber("accepted_total", -1.0);
    const double settled = stats_.GetNumber("done_total", 0.0) +
                           stats_.GetNumber("cancelled_total", 0.0) +
                           stats_.GetNumber("error_total", 0.0);
    const bool books = accepted >= 0.0 && accepted == settled;
    if (!books) result_->Fail("stats books do not balance");
    result_->Attempt(books);
    if (small < kMinSmallJobs) {
      result_->Fail("only " + std::to_string(small) + " small jobs");
    }

    auto& m = result_->metrics;
    m["serve.job_latency_s"] = Median(latency);
    m["serve.job_latency_s.p95"] = Quantile(latency, 0.95);
    m["serve.jobs_per_s"] = static_cast<double>(records_.size()) / elapsed_;
    m["serve.slo_met_frac"] =
        static_cast<double>(slo_met) / static_cast<double>(std::max<size_t>(small, 1));
    m["serve.cancel_latency_s"] = Median(cancel_latency);
    m["daemon.vm_growth_mb"] = vm_growth_mb_;
    m["serve.submit_ack_s"] = Median(submit_ack);
    m["serve.queue_wait_s"] = Median(queue_wait);
    m["serve.run_s"] = Median(run);
    m["serve.cancel_ack_s"] = Median(cancel_ack);
    const double hits = stats_.GetNumber("cache_hits", 0.0);
    const double misses = stats_.GetNumber("cache_misses", 0.0);
    m["serve.cache_hit_frac"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
    m["serve.max_queued_seen"] = stats_.GetNumber("max_queued_seen", 0.0);
    m["serve.connections"] = static_cast<double>(timed_connections_);
    m["daemon.threads_end"] = end_status_.threads;
    AddSpoolMetrics();
  }

 private:
  // Spool footprint of every job the daemon ran.
  void AddSpoolMetrics() {
    double ckpt_bytes = 0.0;
    double events = 0.0;
    double jobs = 0.0;
    std::error_code ec;
    for (const auto& job : fs::directory_iterator(root_ + "/jobs", ec)) {
      jobs += 1.0;
      for (const auto& f :
           fs::recursive_directory_iterator(job.path() / "ckpt", ec)) {
        if (f.is_regular_file(ec)) ckpt_bytes += static_cast<double>(f.file_size(ec));
      }
      std::ifstream progress(job.path() / "progress.ndjson");
      std::string line;
      while (std::getline(progress, line)) events += 1.0;
    }
    const auto ledger = fs::file_size(root_ + "/runs.jsonl", ec);
    jobs = std::max(jobs, 1.0);
    auto& m = result_->metrics;
    m["spool.ckpt_bytes_per_job"] = ckpt_bytes / jobs;
    m["spool.progress_events_per_job"] = events / jobs;
    m["ledger.bytes_per_job"] = ec ? 0.0 : static_cast<double>(ledger) / jobs;
  }

  // Submit, then watch on the same connection until the terminal event;
  // a cancel job is cancelled on a second connection at select_k start.
  void RunJob(JobRecord* r) {
    serve::Client client(daemon_.socket());
    connections_.fetch_add(1);
    if (!client.Connect().ok()) return;
    serve::Request submit;
    submit.op = "submit";
    submit.spec = r->small ? SmallSpec(r->seed) : CancelSpec(r->seed);
    submit.has_spec = true;
    r->submit = Now();
    Result<json::Value> ack = client.Call(submit);
    r->ack = Now();
    if (!ack.ok() || ack->GetString("state", "") != "queued") {
      r->state = ack.ok() ? ack->GetString("state", "error") : "error";
      return;
    }
    r->id = ack->GetString("job_id", "");
    serve::Request watch;
    watch.op = "watch";
    watch.job_id = r->id;
    if (!client.SendRequest(watch).ok()) return;
    while (true) {
      Result<std::string> line = client.ReadLine();
      if (!line.ok()) return;
      const double now = Now();
      Result<json::Value> doc = json::Parse(*line);
      if (!doc.ok()) return;
      if (doc->GetString("kind", "") != "multiclust.progress") {
        r->state = doc->GetString("state", "");
        return;
      }
      if (r->first_event == 0.0) r->first_event = now;
      if (doc->GetBool("terminal", false)) r->terminal = now;
      if (!r->small && r->cancel_sent == 0.0 &&
          doc->GetString("stage", "") == "pipeline.select_k" &&
          doc->GetString("phase", "") == "start") {
        serve::Client canceller(daemon_.socket());
        connections_.fetch_add(1);
        serve::Request cancel;
        cancel.op = "cancel";
        cancel.job_id = r->id;
        r->cancel_sent = Now();
        if (canceller.Connect().ok() && canceller.Call(cancel).ok()) {
          r->cancel_ack = Now();
        }
      }
    }
  }

  json::Value Stats() {
    serve::Client client(daemon_.socket());
    serve::Request stats;
    stats.op = "stats";
    if (!client.Connect().ok()) return json::Value();
    Result<json::Value> r = client.Call(stats);
    return r.ok() ? *r : json::Value();
  }

  // A small job must end done with the in-process reference's labels.
  bool CheckSmall(
      const JobRecord& r,
      const std::map<uint64_t, std::vector<std::vector<int>>>& reference) {
    bool ok = r.state == "done" && r.terminal > 0.0;
    if (ok) {
      std::ifstream in(root_ + "/jobs/" + r.id + "/report.json");
      std::stringstream text;
      text << in.rdbuf();
      Result<DiscoveryReport> report = ReadDiscoveryReportJson(text.str());
      const auto ref = reference.find(r.seed);
      ok = report.ok() && ref != reference.end() &&
           report->solutions.Labels() == ref->second;
    }
    if (!ok) result_->Fail("small job " + r.id + " ended " + r.state);
    result_->Attempt(ok);
    return ok;
  }

  const Args& args_;
  double seconds_;
  RunResult* result_;
  std::string dir_;
  std::string root_;
  uint64_t cancel_base_ = 1;
  size_t rotation_ = 0;
  DaemonProcess daemon_;
  std::atomic<size_t> connections_{0};
  size_t timed_connections_ = 0;
  std::vector<JobRecord> warmup_;
  std::vector<JobRecord> records_;
  double elapsed_ = 0.0;
  double vm_growth_mb_ = 0.0;
  ProcStatus end_status_;
  json::Value stats_;
};

}  // namespace

void RunServeSession(const Args& args, double seconds, RunResult* result) {
  ServeSession session(args, seconds, result);
  if (!session.Start()) return;
  session.Run();
  session.Report();
}

}  // namespace perfbench
