// Tests for the serving plane (src/serve/): deterministic backoff,
// wire protocol, bounded multi-tenant admission, the shared JobRunner,
// the daemon lifecycle — and the headline robustness invariant: SIGKILL
// with jobs in flight, restart, zero accepted jobs lost, bit-identical
// reports.

#include <dirent.h>
#include <ftw.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/report.h"
#include "common/runguard.h"
#include "common/runledger.h"
#include "common/telemetry.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/jobrunner.h"
#include "serve/progress.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "support/json_reader.h"

namespace multiclust {
namespace {

using test::FieldOrFail;
using test::ParseJsonOrFail;

// ---- scratch-directory helper --------------------------------------------

int RemoveTreeCallback(const char* path, const struct stat*, int,
                       struct FTW*) {
  return ::remove(path);
}

void RemoveTree(const std::string& path) {
  ::nftw(path.c_str(), RemoveTreeCallback, 16, FTW_DEPTH | FTW_PHYS);
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mc_serve_XXXXXX";
    char* got = mkdtemp(tmpl);
    path_ = got != nullptr ? got : "/tmp";
  }
  ~TempDir() { RemoveTree(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string out;
  char buf[1 << 14];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

// The deterministic core of a discovery-report document: chosen_k,
// objective and the full solutions subtree (labels included), serialized
// compactly. Two runs of the same work must produce byte-equal essences;
// wall-clock members (elapsed, resource, metrics) live outside these
// subtrees.
std::string ReportEssence(const std::string& report_json_text) {
  auto doc = json::Parse(report_json_text);
  if (!doc.ok()) return "<unparseable: " + doc.status().ToString() + ">";
  const json::Value* report = doc->Find("report");
  if (report == nullptr) return "<no report member>";
  json::Writer w;
  w.BeginObject();
  for (const char* key : {"chosen_k", "objective", "solutions"}) {
    w.Key(key);
    const json::Value* v = report->Find(key);
    if (v == nullptr) {
      w.Null();
    } else {
      json::SerializeValue(*v, &w);
    }
  }
  w.EndObject();
  return std::move(w).str();
}

serve::JobSpec CustomerSpec(uint64_t seed, size_t n = 120) {
  serve::JobSpec spec;
  spec.scenario = "customer";
  spec.scenario_n = n;
  spec.seed = seed;
  return spec;
}

std::shared_ptr<serve::Job> MakeJob(const std::string& id,
                                    const std::string& tenant,
                                    const serve::JobSpec& spec) {
  auto job = std::make_shared<serve::Job>();
  job->id = id;
  job->tenant = tenant;
  job->spec = spec;
  return job;
}

// ---- deterministic backoff (satellite: runguard extension) ---------------

TEST(BackoffTest, ExponentialScheduleWithCap) {
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.base_delay_ms = 100.0;
  policy.max_delay_ms = 400.0;
  EXPECT_DOUBLE_EQ(policy.BackoffDelayMs(0), 0.0);
  EXPECT_DOUBLE_EQ(policy.BackoffDelayMs(1), 100.0);
  EXPECT_DOUBLE_EQ(policy.BackoffDelayMs(2), 200.0);
  EXPECT_DOUBLE_EQ(policy.BackoffDelayMs(3), 400.0);
  EXPECT_DOUBLE_EQ(policy.BackoffDelayMs(4), 400.0);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffDelayMs(60), 400.0);  // 2^59 must not wrap
}

TEST(BackoffTest, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.max_retries = 8;
  policy.base_delay_ms = 100.0;
  policy.max_delay_ms = 800.0;
  policy.jitter = 0.5;
  policy.jitter_seed = 42;
  for (size_t attempt = 1; attempt <= 8; ++attempt) {
    const double nominal = std::min(100.0 * double(1ull << (attempt - 1)),
                                    800.0);
    const double d = policy.BackoffDelayMs(attempt);
    // Equal-jitter band: [d/2, d], never above the cap.
    EXPECT_GE(d, nominal * 0.5) << "attempt " << attempt;
    EXPECT_LE(d, nominal) << "attempt " << attempt;
    EXPECT_LE(d, policy.max_delay_ms);
    // Pure function of (policy, attempt).
    EXPECT_DOUBLE_EQ(d, policy.BackoffDelayMs(attempt));
  }
  // A different jitter seed moves the draws.
  RetryPolicy other = policy;
  other.jitter_seed = 43;
  bool any_differs = false;
  for (size_t attempt = 1; attempt <= 8; ++attempt) {
    if (other.BackoffDelayMs(attempt) != policy.BackoffDelayMs(attempt)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(BackoffTest, SequencerResetReplaysSchedule) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.base_delay_ms = 50.0;
  Backoff backoff(policy);
  EXPECT_TRUE(backoff.CanRetry());
  std::vector<double> first = {backoff.NextDelayMs(), backoff.NextDelayMs(),
                               backoff.NextDelayMs()};
  EXPECT_EQ(backoff.attempts(), 3u);
  EXPECT_FALSE(backoff.CanRetry());
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0u);
  EXPECT_TRUE(backoff.CanRetry());
  std::vector<double> second = {backoff.NextDelayMs(), backoff.NextDelayMs(),
                                backoff.NextDelayMs()};
  EXPECT_EQ(first, second);
}

TEST(BackoffTest, RetrySeedContract) {
  EXPECT_EQ(RetrySeed(7, 0), 7u);  // attempt 0 = the original run
  EXPECT_NE(RetrySeed(7, 1), 7u);
  EXPECT_EQ(RetrySeed(7, 1), RetrySeed(7, 1));
  EXPECT_NE(RetrySeed(7, 1), RetrySeed(7, 2));
  EXPECT_NE(RetrySeed(7, 1), RetrySeed(8, 1));
}

TEST(BackoffTest, SleepWithCancelHonoursToken) {
  CancelToken cancel;
  cancel.Cancel();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(SleepWithCancel(5000.0, &cancel));
  const double waited =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 1000.0);
  EXPECT_TRUE(SleepWithCancel(1.0, nullptr));
}

// ---- wire protocol -------------------------------------------------------

TEST(ProtocolTest, RequestRoundTrip) {
  serve::Request request;
  request.op = "submit";
  request.tenant = "team-a";
  request.spec = CustomerSpec(9, 250);
  request.spec.strategy = "ortho";
  request.spec.solutions = 3;
  request.spec.deadline_ms = 1500.0;
  request.has_spec = true;

  auto parsed = serve::ParseRequest(serve::RequestJson(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->op, "submit");
  EXPECT_EQ(parsed->tenant, "team-a");
  ASSERT_TRUE(parsed->has_spec);
  EXPECT_EQ(parsed->spec.scenario, "customer");
  EXPECT_EQ(parsed->spec.scenario_n, 250u);
  EXPECT_EQ(parsed->spec.strategy, "ortho");
  EXPECT_EQ(parsed->spec.solutions, 3u);
  EXPECT_EQ(parsed->spec.seed, 9u);
  EXPECT_DOUBLE_EQ(parsed->spec.deadline_ms, 1500.0);
}

TEST(ProtocolTest, TenantDefaultsWhenAbsent) {
  serve::Request request;
  request.op = "stats";
  auto parsed = serve::ParseRequest(serve::RequestJson(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tenant, "default");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  // Newer protocol than ours: must fail loudly, not misread.
  EXPECT_FALSE(serve::ParseRequest(
                   R"({"kind":"multiclust.job_request","schema_version":99,)"
                   R"("op":"ping"})")
                   .ok());
  // Wrong kind.
  EXPECT_FALSE(serve::ParseRequest(
                   R"({"kind":"something.else","schema_version":1,)"
                   R"("op":"ping"})")
                   .ok());
  // Unknown op.
  EXPECT_FALSE(serve::ParseRequest(
                   R"({"kind":"multiclust.job_request","schema_version":1,)"
                   R"("op":"frobnicate"})")
                   .ok());
  // submit without a job spec.
  EXPECT_FALSE(serve::ParseRequest(
                   R"({"kind":"multiclust.job_request","schema_version":1,)"
                   R"("op":"submit"})")
                   .ok());
  // status without a job id.
  EXPECT_FALSE(serve::ParseRequest(
                   R"({"kind":"multiclust.job_request","schema_version":1,)"
                   R"("op":"status"})")
                   .ok());
  // A spec naming both an input file and a scenario.
  EXPECT_FALSE(serve::ParseRequest(
                   R"({"kind":"multiclust.job_request","schema_version":1,)"
                   R"("op":"submit","job":{"input_csv":"x.csv",)"
                   R"("scenario":"customer"}})")
                   .ok());
  // Not JSON at all.
  EXPECT_FALSE(serve::ParseRequest("ceci n'est pas une requête").ok());
}

TEST(ProtocolTest, ErrorResponseShape) {
  const json::Value doc =
      ParseJsonOrFail(serve::ErrorResponse("submit", "draining",
                                           "daemon is draining"));
  EXPECT_EQ(doc.GetString("kind", ""), serve::kResponseKind);
  EXPECT_EQ(doc.GetString("op", ""), "submit");
  EXPECT_FALSE(doc.GetBool("ok", true));
  EXPECT_EQ(doc.GetString("error", ""), "draining");
  EXPECT_EQ(doc.GetString("message", ""), "daemon is draining");
}

TEST(ProtocolTest, TaggedProgressCarriesJobMember) {
  telemetry::ProgressEvent event;
  event.stage = "dec-kmeans";
  event.phase = "iteration";
  event.iteration = 4;
  const std::string tagged =
      telemetry::ProgressEventJson(event, 17, 3.5, "job-abc");
  const json::Value doc = ParseJsonOrFail(tagged);
  EXPECT_EQ(doc.GetString("kind", ""), "multiclust.progress");
  EXPECT_EQ(doc.GetString("job", ""), "job-abc");
  EXPECT_DOUBLE_EQ(doc.GetNumber("seq", -1.0), 17.0);
  EXPECT_DOUBLE_EQ(doc.GetNumber("elapsed_ms", -1.0), 3.5);
  EXPECT_EQ(doc.GetString("phase", ""), "iteration");

  // Byte form: the tagged line is the untagged line with the job member
  // inserted right after schema_version, nothing else moved or changed.
  std::string expected = telemetry::ProgressEventJson(event, 17, 3.5);
  const std::string anchor = "\"schema_version\":1,";
  const size_t at = expected.find(anchor);
  ASSERT_NE(at, std::string::npos) << expected;
  expected.insert(at + anchor.size(), "\"job\":\"job-abc\",");
  EXPECT_EQ(tagged, expected);
}

// ---- bounded multi-tenant queue ------------------------------------------

TEST(JobQueueTest, QueueDepthBoundShedsDeterministically) {
  serve::QuotaPolicy policy;
  policy.max_queue_depth = 3;
  policy.max_active_per_tenant = 0;  // unlimited: isolate the depth bound
  policy.retry_after_base_ms = 100.0;
  serve::JobQueue queue(policy);

  for (int i = 0; i < 3; ++i) {
    auto decision = queue.Offer(
        MakeJob("job-" + std::to_string(i), "t", CustomerSpec(1)));
    EXPECT_TRUE(decision.admitted) << i;
  }
  // Full queue: rejected with the deterministic hint
  // base * (1 + queued + running) = 100 * 4.
  for (int i = 0; i < 2; ++i) {
    auto decision =
        queue.Offer(MakeJob("job-x" + std::to_string(i), "t",
                            CustomerSpec(1)));
    EXPECT_FALSE(decision.admitted);
    EXPECT_EQ(decision.reason, "queue_full");
    EXPECT_DOUBLE_EQ(decision.retry_after_ms, 400.0);
  }
  const serve::QueueStats stats = queue.stats();
  EXPECT_EQ(stats.queued, 3u);
  EXPECT_EQ(stats.accepted_total, 3u);
  EXPECT_EQ(stats.rejected_total, 2u);
  EXPECT_EQ(stats.max_queued_seen, 3u);
  // Rejected jobs leave no residue: their ids are unknown.
  EXPECT_FALSE(queue.Info("job-x0").found);
}

TEST(JobQueueTest, TenantQuotaIsPerTenant) {
  serve::QuotaPolicy policy;
  policy.max_queue_depth = 16;
  policy.max_active_per_tenant = 2;
  serve::JobQueue queue(policy);

  EXPECT_TRUE(queue.Offer(MakeJob("a1", "alice", CustomerSpec(1))).admitted);
  EXPECT_TRUE(queue.Offer(MakeJob("a2", "alice", CustomerSpec(1))).admitted);
  auto rejected = queue.Offer(MakeJob("a3", "alice", CustomerSpec(1)));
  EXPECT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.reason, "tenant_quota");
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  // Another tenant is unaffected.
  EXPECT_TRUE(queue.Offer(MakeJob("b1", "bob", CustomerSpec(1))).admitted);
}

TEST(JobQueueTest, DispatchSkipsTenantAtRunningCap) {
  serve::QuotaPolicy policy;
  policy.max_running_per_tenant = 1;
  serve::JobQueue queue(policy);
  queue.Offer(MakeJob("a1", "alice", CustomerSpec(1)));
  queue.Offer(MakeJob("a2", "alice", CustomerSpec(1)));
  queue.Offer(MakeJob("b1", "bob", CustomerSpec(1)));

  auto first = queue.Take();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id, "a1");
  // alice is at her running cap: FIFO order skips a2 and hands out b1.
  auto second = queue.Take();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id, "b1");
  // Finishing a1 frees alice's slot.
  queue.Finish(first, serve::JobState::kDone, serve::JobResult{});
  auto third = queue.Take();
  ASSERT_NE(third, nullptr);
  EXPECT_EQ(third->id, "a2");
}

TEST(JobQueueTest, CancelEvictsQueuedExactlyOnce) {
  serve::JobQueue queue(serve::QuotaPolicy{});
  queue.Offer(MakeJob("j1", "t", CustomerSpec(1)));

  serve::JobState after;
  bool evicted_now = false;
  ASSERT_TRUE(queue.Cancel("j1", "client", &after, &evicted_now));
  EXPECT_EQ(after, serve::JobState::kEvicted);
  EXPECT_TRUE(evicted_now);
  // Second cancel is a no-op on a terminal job.
  ASSERT_TRUE(queue.Cancel("j1", "client", &after, &evicted_now));
  EXPECT_EQ(after, serve::JobState::kEvicted);
  EXPECT_FALSE(evicted_now);
  EXPECT_FALSE(queue.Cancel("nope", "client", &after, &evicted_now));
  EXPECT_EQ(queue.stats().evicted_total, 1u);
}

TEST(JobQueueTest, CancelTripsRunningJobToken) {
  serve::JobQueue queue(serve::QuotaPolicy{});
  queue.Offer(MakeJob("j1", "t", CustomerSpec(1)));
  auto job = queue.Take();
  ASSERT_NE(job, nullptr);
  EXPECT_FALSE(job->cancel.cancelled());

  serve::JobState after;
  ASSERT_TRUE(queue.Cancel("j1", "client", &after));
  EXPECT_EQ(after, serve::JobState::kRunning);  // worker still owns it
  EXPECT_TRUE(job->cancel.cancelled());
  EXPECT_EQ(job->cancel_cause, "client");
}

TEST(JobQueueTest, WatchdogSweepCancelsOverdueRunningJob) {
  serve::JobQueue queue(serve::QuotaPolicy{});
  auto wedged = MakeJob("wedged", "t", CustomerSpec(1));
  wedged->spec.deadline_ms = 1.0;  // a deadline the job will overstay
  queue.Offer(wedged);
  auto job = queue.Take();
  ASSERT_NE(job, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::vector<std::shared_ptr<serve::Job>> evicted;
  std::vector<std::string> cancelled = queue.Sweep(/*grace_ms=*/1.0,
                                                   &evicted);
  ASSERT_EQ(cancelled.size(), 1u);
  EXPECT_EQ(cancelled[0], "wedged");
  EXPECT_TRUE(job->cancel.cancelled());
  EXPECT_EQ(job->cancel_cause, "watchdog");
  EXPECT_TRUE(evicted.empty());
}

TEST(JobQueueTest, WatchdogSweepEvictsExpiredQueuedJob) {
  serve::QuotaPolicy policy;
  policy.queue_ttl_ms = 1.0;
  serve::JobQueue queue(policy);
  queue.Offer(MakeJob("stale", "t", CustomerSpec(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::vector<std::shared_ptr<serve::Job>> evicted;
  queue.Sweep(/*grace_ms=*/0.0, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0]->id, "stale");
  EXPECT_EQ(queue.Info("stale").state, serve::JobState::kEvicted);
}

TEST(JobQueueTest, UnpublishedJobIsNotDispatched) {
  serve::JobQueue queue(serve::QuotaPolicy{});
  auto unpublished = MakeJob("j1", "t", CustomerSpec(1));
  unpublished->published = false;
  queue.Offer(unpublished);
  queue.Offer(MakeJob("j2", "t", CustomerSpec(1)));

  // j1's durable records are not on disk yet: a worker must skip it.
  auto job = queue.Take();
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->id, "j2");
  queue.MarkPublished(unpublished);
  auto next = queue.Take();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->id, "j1");
}

// ---- dataset cache -------------------------------------------------------

TEST(DatasetCacheTest, RepeatQueriesSkipIngest) {
  serve::DatasetCache cache(4);
  bool hit = true;
  auto first = cache.Resolve(CustomerSpec(5), &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = cache.Resolve(CustomerSpec(5), &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  // The cached dataset is shared, not copied.
  EXPECT_EQ(first->get(), second->get());
  // A different seed is different work.
  auto other = cache.Resolve(CustomerSpec(6), &hit);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(DatasetCacheTest, CapacityEvictsLeastRecentlyUsed) {
  serve::DatasetCache cache(2);
  bool hit = false;
  ASSERT_TRUE(cache.Resolve(CustomerSpec(1, 60), &hit).ok());
  ASSERT_TRUE(cache.Resolve(CustomerSpec(2, 60), &hit).ok());
  ASSERT_TRUE(cache.Resolve(CustomerSpec(3, 60), &hit).ok());  // evicts seed 1
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Resolve(CustomerSpec(1, 60), &hit).ok());
  EXPECT_FALSE(hit);  // seed 1 was evicted and had to reload
}

TEST(DatasetCacheTest, MissingCsvFailsAtKeyTime) {
  serve::JobSpec spec;
  spec.input_csv = "/nonexistent/never/there.csv";
  EXPECT_FALSE(serve::DatasetCache::KeyFor(spec).ok());
}

// ---- shared JobRunner ----------------------------------------------------

TEST(JobRunnerTest, DeterministicAcrossRuns) {
  serve::JobRunner runner;
  serve::RunRequest request;
  request.spec = CustomerSpec(3, 100);
  serve::RunOutcome a = runner.Run(request);
  serve::RunOutcome b = runner.Run(request);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.report.objective.mean_quality, b.report.objective.mean_quality);
  EXPECT_EQ(a.report.chosen_k, b.report.chosen_k);
}

TEST(JobRunnerTest, PreresolvedDatasetSkipsIngestAndCache) {
  serve::DatasetCache cache(4);
  serve::JobRunner runner(&cache);
  serve::RunRequest request;
  request.spec = CustomerSpec(3, 100);
  auto loaded = serve::LoadDataset(request.spec);
  ASSERT_TRUE(loaded.ok());
  request.dataset =
      std::make_shared<const Dataset>(std::move(loaded).value());

  serve::RunOutcome out = runner.Run(request);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.dataset.get(), request.dataset.get());
  EXPECT_EQ(cache.size(), 0u);  // untouched
  // Fingerprint matches the cache-resolved path bit for bit.
  serve::RunRequest fresh;
  fresh.spec = request.spec;
  serve::RunOutcome via_cache = serve::JobRunner(&cache).Run(fresh);
  ASSERT_TRUE(via_cache.status.ok());
  EXPECT_EQ(out.fingerprint, via_cache.fingerprint);
}

TEST(JobRunnerTest, CancelledBeforeRunReturnsCancelled) {
  CancelToken cancel;
  cancel.Cancel();
  serve::RunRequest request;
  request.spec = CustomerSpec(3, 100);
  request.cancel = &cancel;
  serve::RunOutcome out = serve::JobRunner().Run(request);
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
}

// ---- daemon: admission, lifecycle, durability ----------------------------

struct DaemonFixture {
  TempDir dir;
  serve::DaemonOptions options;

  explicit DaemonFixture(size_t workers = 1) {
    options.socket_path = dir.path() + "/d.sock";
    options.root = dir.path() + "/root";
    options.workers = workers;
  }
};

// Polls `status` until the job is terminal; returns the final response.
json::Value WaitTerminal(serve::Client* client, const std::string& job_id,
                         int timeout_ms = 30000) {
  serve::Request status;
  status.op = "status";
  status.job_id = job_id;
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    auto response = client->Call(status);
    if (!response.ok()) break;
    const std::string state = response->GetString("state", "");
    if (state == "done" || state == "error" || state == "cancelled" ||
        state == "evicted") {
      return *response;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ADD_FAILURE() << "job " << job_id << " never reached a terminal state";
  return json::Value::MakeNull();
}

json::Value SubmitOk(serve::Client* client, const serve::JobSpec& spec,
                     const std::string& tenant = "") {
  serve::Request submit;
  submit.op = "submit";
  submit.tenant = tenant;
  submit.spec = spec;
  submit.has_spec = true;
  auto response = client->Call(submit);
  if (!response.ok()) {
    ADD_FAILURE() << "submit failed: " << response.status().ToString();
    return json::Value::MakeNull();
  }
  return *response;
}

TEST(DaemonTest, SubmitRunReportLedgerRoundTrip) {
  DaemonFixture fixture(/*workers=*/1);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());

  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());
  const json::Value accept = SubmitOk(&client, CustomerSpec(7, 100));
  EXPECT_TRUE(accept.GetBool("ok", false));
  EXPECT_EQ(accept.GetString("state", ""), "queued");
  const std::string job_id = accept.GetString("job_id", "");
  ASSERT_FALSE(job_id.empty());

  const json::Value done = WaitTerminal(&client, job_id);
  EXPECT_EQ(done.GetString("state", ""), "done");
  const std::string report_path = done.GetString("report", "");
  ASSERT_FALSE(report_path.empty());
  // The report is a valid discovery-report document.
  auto report = ReadDiscoveryReportJson(ReadFileOrEmpty(report_path));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  // Fingerprint matches a direct JobRunner computation of the same work.
  serve::RunRequest request;
  request.spec = CustomerSpec(7, 100);
  auto resolved = serve::LoadDataset(request.spec);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(done.GetString("fingerprint", ""),
            serve::FingerprintHex(
                serve::WorkFingerprint(resolved->data(), request.spec)));
  daemon.Shutdown();

  // Ledger story: queued -> ok, with job/tenant attribution.
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(daemon.ledger_path(), &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "queued");
  EXPECT_FALSE(ledger::IsTerminalStatus(records[0].status));
  EXPECT_EQ(records[1].status, "ok");
  EXPECT_EQ(records[0].job, job_id);
  EXPECT_EQ(records[1].job, job_id);
  EXPECT_EQ(records[0].tenant, "default");
  EXPECT_EQ(records[1].report_path, report_path);
}

TEST(DaemonTest, AdmissionShedsDeterministicallyUnderOverload) {
  // workers=0 pins every accepted job in the queue, making the admission
  // decisions a pure function of the submit order.
  DaemonFixture fixture(/*workers=*/0);
  fixture.options.quota.max_queue_depth = 2;
  fixture.options.quota.retry_after_base_ms = 100.0;
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());

  EXPECT_EQ(SubmitOk(&client, CustomerSpec(1)).GetString("state", ""),
            "queued");
  EXPECT_EQ(SubmitOk(&client, CustomerSpec(2)).GetString("state", ""),
            "queued");
  // Queue full: deterministic rejection, hint = 100 * (1 + 2 + 0).
  for (int i = 0; i < 3; ++i) {
    const json::Value rejected = SubmitOk(&client, CustomerSpec(3));
    EXPECT_TRUE(rejected.GetBool("ok", false));
    EXPECT_EQ(rejected.GetString("state", ""), "rejected");
    EXPECT_EQ(rejected.GetString("reason", ""), "queue_full");
    EXPECT_DOUBLE_EQ(rejected.GetNumber("retry_after_ms", 0.0), 300.0);
    EXPECT_TRUE(rejected.GetString("job_id", "").empty());
  }
  const serve::QueueStats stats = daemon.queue_stats();
  EXPECT_EQ(stats.accepted_total, 2u);
  EXPECT_EQ(stats.rejected_total, 3u);
  EXPECT_EQ(stats.max_queued_seen, 2u);
  daemon.Shutdown();

  // Rejected submits leave no ledger residue — only the 2 accepted jobs.
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(daemon.ledger_path(), &records).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST(DaemonTest, TenantQuotaRejectsAtDaemonLevel) {
  DaemonFixture fixture(/*workers=*/0);
  fixture.options.quota.max_queue_depth = 16;
  fixture.options.quota.max_active_per_tenant = 1;
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());

  EXPECT_EQ(SubmitOk(&client, CustomerSpec(1), "alice").GetString("state", ""),
            "queued");
  const json::Value rejected = SubmitOk(&client, CustomerSpec(2), "alice");
  EXPECT_EQ(rejected.GetString("state", ""), "rejected");
  EXPECT_EQ(rejected.GetString("reason", ""), "tenant_quota");
  EXPECT_EQ(SubmitOk(&client, CustomerSpec(3), "bob").GetString("state", ""),
            "queued");
  daemon.Shutdown();
}

TEST(DaemonTest, CancelQueuedJobEvicts) {
  DaemonFixture fixture(/*workers=*/0);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());

  const std::string job_id =
      SubmitOk(&client, CustomerSpec(1)).GetString("job_id", "");
  ASSERT_FALSE(job_id.empty());
  serve::Request cancel;
  cancel.op = "cancel";
  cancel.job_id = job_id;
  auto response = client.Call(cancel);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("state", ""), "evicted");
  // Unknown job: stable error key.
  cancel.job_id = "job-doesnotexist";
  auto missing = client.Call(cancel);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->GetBool("ok", true));
  EXPECT_EQ(missing->GetString("error", ""), "not_found");
  daemon.Shutdown();

  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(daemon.ledger_path(), &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].status, "evicted");
}

TEST(DaemonTest, ConcurrentClientsNeverExceedQueueBound) {
  DaemonFixture fixture(/*workers=*/2);
  fixture.options.quota.max_queue_depth = 4;
  fixture.options.quota.max_active_per_tenant = 0;
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());

  constexpr int kThreads = 3;
  constexpr int kPerThread = 6;
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      serve::Client client(fixture.options.socket_path);
      if (!client.Connect().ok()) {
        malformed.fetch_add(kPerThread);
        return;
      }
      for (int i = 0; i < kPerThread; ++i) {
        serve::Request submit;
        submit.op = "submit";
        submit.tenant = "tenant-" + std::to_string(t);
        submit.spec = CustomerSpec(uint64_t(t * 100 + i), 60);
        submit.has_spec = true;
        auto response = client.Call(submit);
        if (!response.ok() || !response->GetBool("ok", false)) {
          malformed.fetch_add(1);
          continue;
        }
        const std::string state = response->GetString("state", "");
        if (state == "queued") {
          accepted.fetch_add(1);
        } else if (state == "rejected") {
          // Every rejection is complete: reason + positive hint.
          if (response->GetString("reason", "").empty() ||
              response->GetNumber("retry_after_ms", 0.0) <= 0.0) {
            malformed.fetch_add(1);
          } else {
            rejected.fetch_add(1);
          }
        } else {
          malformed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(malformed.load(), 0);
  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_GT(accepted.load(), 0);

  // Drain the accepted backlog, then check the invariants.
  for (int waited = 0; waited < 60000; waited += 50) {
    const serve::QueueStats stats = daemon.queue_stats();
    if (stats.queued == 0 && stats.running == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const serve::QueueStats stats = daemon.queue_stats();
  EXPECT_LE(stats.max_queued_seen, fixture.options.quota.max_queue_depth);
  EXPECT_EQ(stats.accepted_total, size_t(accepted.load()));
  EXPECT_EQ(stats.rejected_total, size_t(rejected.load()));
  EXPECT_EQ(stats.done_total, size_t(accepted.load()));
  daemon.Shutdown();
}

TEST(DaemonTest, DrainSuspendsRunningJobsAndRestartFinishesThem) {
  DaemonFixture fixture(/*workers=*/1);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());

  // A slow job (big n) plus two queued behind the single worker.
  std::vector<std::string> ids;
  for (uint64_t seed : {21, 22, 23}) {
    ids.push_back(SubmitOk(&client, CustomerSpec(seed, 800))
                      .GetString("job_id", ""));
    ASSERT_FALSE(ids.back().empty());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.Close();
  daemon.Shutdown();  // drain: running job suspended, queued jobs kept

  // Nothing was ledgered terminal by the drain.
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(daemon.ledger_path(), &records).ok());
  for (const ledger::RunRecord& record : records) {
    EXPECT_FALSE(ledger::IsTerminalStatus(record.status))
        << record.job << " " << record.status;
  }

  // Restart: recovery re-enqueues all three and finishes them.
  serve::Daemon second(fixture.options);
  ASSERT_TRUE(second.Start().ok());
  EXPECT_EQ(second.recovered_jobs(), 3u);
  for (int waited = 0; waited < 120000; waited += 50) {
    const serve::QueueStats stats = second.queue_stats();
    if (stats.queued == 0 && stats.running == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(second.queue_stats().done_total, 3u);
  second.Shutdown();

  records.clear();
  ASSERT_TRUE(ledger::Read(fixture.options.root + "/runs.jsonl", &records)
                  .ok());
  std::map<std::string, std::string> last_status;
  for (const ledger::RunRecord& record : records) {
    last_status[record.job] = record.status;
  }
  EXPECT_EQ(last_status.size(), 3u);
  for (const std::string& id : ids) {
    EXPECT_EQ(last_status[id], "ok") << id;
  }
}

TEST(DaemonTest, SubmitWhileDrainingIsRejectedWithStableKey) {
  DaemonFixture fixture(/*workers=*/1);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());

  serve::Request drain;
  drain.op = "drain";
  auto acked = client.Call(drain);
  ASSERT_TRUE(acked.ok());
  EXPECT_TRUE(acked->GetBool("ok", false));
  daemon.Wait();

  // The daemon is gone; a fresh connection must fail (socket unlinked).
  serve::Client late(fixture.options.socket_path);
  EXPECT_FALSE(late.Connect().ok());
}

TEST(DaemonTest, DrainRequestedBeforeStartStopsAcceptLoopAtOnce) {
  // A SIGTERM can land while Start() is still recovering jobs: the latched
  // drain must stop the accept loop as soon as it runs.
  DaemonFixture fixture(/*workers=*/1);
  serve::Daemon daemon(fixture.options);
  daemon.RequestDrain();
  ASSERT_TRUE(daemon.Start().ok());
  daemon.Wait();
  serve::Client late(fixture.options.socket_path);
  EXPECT_FALSE(late.Connect().ok());
}

// Threads of this process (entries of /proc/self/task).
size_t TaskCount() {
  size_t count = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir)) {
      if (entry->d_name[0] != '.') ++count;
    }
    ::closedir(dir);
  }
  return count;
}

// Virtual size of this process in kB (the VmSize line of
// /proc/self/status), or 0 when unreadable.
size_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  return 0;
}

TEST(DaemonTest, SequentialConnectionsDoNotAccumulateThreads) {
  // Each connection runs on its own thread. A finished one must be joined
  // while the daemon runs: an exited but unjoined thread keeps its stack
  // (8 MB of address space by default) until shutdown.
  DaemonFixture fixture(/*workers=*/0);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  const auto ping = [&] {
    serve::Client client(fixture.options.socket_path);
    ASSERT_TRUE(client.Connect().ok());
    serve::Request request;
    request.op = "ping";
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(response->GetBool("ok", false));
  };
  for (int i = 0; i < 20; ++i) ping();  // warm the allocator's stack cache
  const size_t tasks_before = TaskCount();
  const size_t vm_before_kb = VmSizeKb();
  ASSERT_GT(tasks_before, 0u);
  ASSERT_GT(vm_before_kb, 0u);
  size_t max_tasks = tasks_before;
  for (int i = 0; i < 500; ++i) {
    ping();
    max_tasks = std::max(max_tasks, TaskCount());
  }
  EXPECT_LE(max_tasks, tasks_before + 4);
  EXPECT_LT(VmSizeKb(), vm_before_kb + 256 * 1024)
      << "500 connections grew the address space by "
      << (VmSizeKb() - vm_before_kb) / 1024 << " MB";
  daemon.Shutdown();
}

#if defined(MULTICLUST_DISCOVERD_PATH)
TEST(DaemonSignalTest, SigtermDuringStartupDrainsCleanly) {
  // The real binary, signalled the moment its socket file appears — i.e.
  // while Start() may still be running. It must drain and exit 0.
  TempDir dir;
  const std::string socket_path = dir.path() + "/d.sock";
  const std::string socket_flag = "--socket=" + socket_path;
  const std::string root_flag = "--root=" + dir.path() + "/root";
  int err_pipe[2];
  ASSERT_EQ(pipe(err_pipe), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    dup2(err_pipe[1], STDERR_FILENO);
    close(err_pipe[0]);
    close(err_pipe[1]);
    execl(MULTICLUST_DISCOVERD_PATH, "discoverd", socket_flag.c_str(),
          root_flag.c_str(), "--workers=1", static_cast<char*>(nullptr));
    _exit(127);
  }
  close(err_pipe[1]);
  struct stat st;
  for (int waited_us = 0;
       stat(socket_path.c_str(), &st) != 0 && waited_us < 10000000;
       waited_us += 100) {
    usleep(100);
  }
  ASSERT_EQ(kill(child, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  std::string err;
  char buf[512];
  ssize_t got;
  while ((got = read(err_pipe[0], buf, sizeof(buf))) > 0) err.append(buf, got);
  close(err_pipe[0]);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "killed by signal " << WTERMSIG(wstatus);
  EXPECT_EQ(WEXITSTATUS(wstatus), 0) << err;
  EXPECT_NE(err.find("discoverd: drained"), std::string::npos) << err;
}
#endif  // MULTICLUST_DISCOVERD_PATH

// ---- the headline invariant: SIGKILL loses nothing -----------------------

TEST(DaemonKillTest, SigkillWithInflightJobsLosesNothingBitIdentically) {
  TempDir dir;
  serve::DaemonOptions options;
  options.socket_path = dir.path() + "/d.sock";
  options.root = dir.path() + "/root";
  options.workers = 2;

  // The daemon runs in a forked child so a real SIGKILL can take it down
  // mid-flight — no cooperation, no flushing, exactly like a crash.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    serve::Daemon daemon(options);
    if (!daemon.Start().ok()) _exit(1);
    daemon.Wait();
    _exit(0);
  }

  const std::vector<uint64_t> seeds = {31, 32, 33, 34};
  std::vector<std::string> ids;
  {
    serve::Client client(options.socket_path);
    RetryPolicy reconnect;
    reconnect.max_retries = 200;
    reconnect.base_delay_ms = 10.0;
    reconnect.max_delay_ms = 50.0;
    ASSERT_TRUE(client.ConnectWithRetry(reconnect).ok());
    for (uint64_t seed : seeds) {
      const json::Value accept = SubmitOk(&client, CustomerSpec(seed, 200));
      ASSERT_EQ(accept.GetString("state", ""), "queued");
      ids.push_back(accept.GetString("job_id", ""));
    }
  }
  // All four acknowledged. Kill the daemon with work in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Restart in-process: recovery must finish every accepted job.
  serve::Daemon recovered(options);
  ASSERT_TRUE(recovered.Start().ok());
  for (int waited = 0; waited < 120000; waited += 50) {
    const serve::QueueStats stats = recovered.queue_stats();
    if (stats.queued == 0 && stats.running == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  recovered.Shutdown();

  // Zero lost: every acknowledged job's ledger story ends in "ok".
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(options.root + "/runs.jsonl", &records).ok());
  std::map<std::string, ledger::RunRecord> last;
  for (const ledger::RunRecord& record : records) {
    last[record.job] = record;
  }
  ASSERT_EQ(last.size(), seeds.size());
  for (const std::string& id : ids) {
    ASSERT_TRUE(last.count(id)) << "acknowledged job vanished: " << id;
    EXPECT_EQ(last[id].status, "ok") << id;
  }

  // Bit-identical: each recovered report matches an uninterrupted
  // JobRunner baseline of the same spec.
  for (uint64_t seed : seeds) {
    serve::RunRequest baseline;
    baseline.spec = CustomerSpec(seed, 200);
    serve::RunOutcome outcome = serve::JobRunner().Run(baseline);
    ASSERT_TRUE(outcome.status.ok());
    ReportJsonOptions compact;
    compact.include_metrics = false;
    compact.include_spans = false;
    const std::string baseline_essence =
        ReportEssence(DiscoveryReportJson(outcome.report, compact));

    // Find the daemon's report for this seed via the ledger.
    std::string report_path;
    for (const auto& [job, record] : last) {
      if (record.seed == seed) report_path = record.report_path;
    }
    ASSERT_FALSE(report_path.empty()) << "no report for seed " << seed;
    EXPECT_EQ(ReportEssence(ReadFileOrEmpty(report_path)), baseline_essence)
        << "seed " << seed << " diverged after kill/resume";
  }
}

// ---- chaos against a live daemon -----------------------------------------

TEST(DaemonFaultTest, CrashFaultSuspendsThenResumesInDaemon) {
  fault::Reset();
  FaultSpec spec;
  spec.site = "dec-kmeans";
  spec.kind = FaultKind::kCrash;  // snapshot-then-abort -> kAborted
  spec.at_iteration = 3;
  spec.max_fires = 1;
  fault::Arm(spec);

  DaemonFixture fixture(/*workers=*/1);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());

  const std::string job_id =
      SubmitOk(&client, CustomerSpec(11, 150)).GetString("job_id", "");
  ASSERT_FALSE(job_id.empty());
  const json::Value done = WaitTerminal(&client, job_id);
  EXPECT_EQ(done.GetString("state", ""), "done");
  daemon.Shutdown();
  fault::Reset();

  // The ledger shows the suspension: queued -> resumed (in-daemon) -> ok.
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(daemon.ledger_path(), &records).ok());
  std::vector<std::string> story;
  for (const ledger::RunRecord& record : records) {
    if (record.job == job_id) story.push_back(record.status);
  }
  ASSERT_EQ(story.size(), 3u);
  EXPECT_EQ(story[0], "queued");
  EXPECT_EQ(story[1], "resumed");
  EXPECT_EQ(story[2], "ok");

  // And the fault-interrupted, checkpoint-resumed run is bit-identical to
  // an undisturbed baseline.
  serve::RunRequest baseline;
  baseline.spec = CustomerSpec(11, 150);
  serve::RunOutcome outcome = serve::JobRunner().Run(baseline);
  ASSERT_TRUE(outcome.status.ok());
  ReportJsonOptions compact;
  compact.include_metrics = false;
  compact.include_spans = false;
  EXPECT_EQ(ReportEssence(ReadFileOrEmpty(done.GetString("report", ""))),
            ReportEssence(DiscoveryReportJson(outcome.report, compact)));
}

TEST(DaemonFaultTest, StatusPollsDuringFaultResumeSeeConsistentJob) {
  // Two crash fires: the job is fault-resumed twice while a second client
  // polls `status` as fast as it can. The worker publishes the resume
  // through the queue mutex, so every poll sees a consistent job record.
  fault::Reset();
  FaultSpec spec;
  spec.site = "dec-kmeans";
  spec.kind = FaultKind::kCrash;
  spec.at_iteration = 2;
  spec.max_fires = 2;
  fault::Arm(spec);

  DaemonFixture fixture(/*workers=*/1);
  serve::Daemon daemon(fixture.options);
  ASSERT_TRUE(daemon.Start().ok());
  serve::Client client(fixture.options.socket_path);
  ASSERT_TRUE(client.Connect().ok());
  const std::string job_id =
      SubmitOk(&client, CustomerSpec(11, 150)).GetString("job_id", "");
  ASSERT_FALSE(job_id.empty());

  std::atomic<bool> stop{false};
  size_t polls = 0;
  size_t failed_polls = 0;
  std::thread poller([&] {
    serve::Client watcher(fixture.options.socket_path);
    if (!watcher.Connect().ok()) {
      ++failed_polls;
      return;
    }
    serve::Request status;
    status.op = "status";
    status.job_id = job_id;
    do {
      auto response = watcher.Call(status);
      ++polls;
      if (!response.ok() || !response->GetBool("ok", false)) ++failed_polls;
    } while (!stop.load());
  });
  const json::Value done = WaitTerminal(&client, job_id);
  stop.store(true);
  poller.join();
  daemon.Shutdown();
  EXPECT_EQ(fault::TotalFires("dec-kmeans"), 2u);
  fault::Reset();

  EXPECT_EQ(done.GetString("state", ""), "done");
  EXPECT_GT(polls, 0u);
  EXPECT_EQ(failed_polls, 0u);
  // Both "resumed" rows carry the run's fingerprint.
  const std::string fingerprint = done.GetString("fingerprint", "");
  ASSERT_FALSE(fingerprint.empty());
  std::vector<ledger::RunRecord> records;
  ASSERT_TRUE(ledger::Read(daemon.ledger_path(), &records).ok());
  size_t resumed = 0;
  for (const ledger::RunRecord& record : records) {
    if (record.job != job_id || record.status != "resumed") continue;
    ++resumed;
    EXPECT_EQ(record.fingerprint, fingerprint);
  }
  EXPECT_EQ(resumed, 2u);
}

}  // namespace
}  // namespace multiclust
