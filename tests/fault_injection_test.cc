// Recovery-path suite: exercises the run-guard subsystem (budgets,
// cancellation, deterministic retries) and — when fault injection is
// compiled in (the default) — every recovery path the injector can reach:
// poisoned iterations, forced non-convergence, expired deadlines, restart
// skipping, and the discovery pipeline's strategy fallback chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "altspace/dec_kmeans.h"
#include "cluster/gmm.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "common/blackbox.h"
#include "common/fault.h"
#include "common/runguard.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/pipeline.h"
#include "data/generators.h"
#include "linalg/decomposition.h"
#include "multiview/mv_spectral.h"
#include "stats/hsic.h"
#include "subspace/msc.h"
#include "subspace/orclus.h"
#include "support/restart_algorithms.h"

namespace multiclust {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

Matrix BlobData(uint64_t seed = 21) {
  auto ds = MakeBlobs({{{0, 0}, 0.6, 30}, {{6, 0}, 0.6, 30},
                       {{3, 5}, 0.6, 30}},
                      seed);
  return ds->data();
}

// ---- Budget semantics (no injected faults required) ----------------------

TEST_F(FaultInjectionTest, IterationCapReturnsPartialResult) {
  // Uniform data with k = 5 does not converge in one Lloyd iteration.
  auto ds = MakeUniformCube(200, 4, 3);
  KMeansOptions opts;
  opts.k = 5;
  opts.restarts = 1;
  opts.seed = 5;
  opts.budget.max_iterations = 1;
  auto c = RunKMeans(ds->data(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->labels.size(), 200u);
  EXPECT_LE(c->iterations, 1u);
  EXPECT_FALSE(c->converged);
}

TEST_F(FaultInjectionTest, ExpiredDeadlineReturnsPartialResult) {
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 3;
  opts.seed = 5;
  opts.budget.deadline_ms = 1e-6;  // expired by the first check
  auto c = RunKMeans(BlobData(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->labels.size(), 90u);
  EXPECT_FALSE(c->converged);
}

TEST_F(FaultInjectionTest, CancelTokenAbortsWithCancelled) {
  CancelToken cancel;
  cancel.Cancel();
  KMeansOptions opts;
  opts.k = 3;
  opts.budget.cancel = &cancel;
  auto c = RunKMeans(BlobData(), opts);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultInjectionTest, CancelIsNeverSwallowedByPipelineFallbacks) {
  CancelToken cancel;
  cancel.Cancel();
  DiscoveryOptions opts;
  opts.k = 2;
  opts.budget.cancel = &cancel;
  auto r = DiscoverMultipleClusterings(BlobData(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
}

TEST_F(FaultInjectionTest, SelectKHonoursCancelToken) {
  CancelToken cancel;
  cancel.Cancel();
  auto k = SelectKBySilhouette(BlobData(), 5, 3, &cancel);
  ASSERT_FALSE(k.ok());
  EXPECT_EQ(k.status().code(), StatusCode::kCancelled);
  // Without a token the same call selects a k.
  EXPECT_TRUE(SelectKBySilhouette(BlobData(), 5, 3).ok());
}

// Trips the token on the start event of one stage and records whether
// that stage ever ended.
struct CancelAtStageSink : telemetry::ProgressSink {
  CancelAtStageSink(CancelToken* t, std::string s)
      : token(t), stage(std::move(s)) {}
  void OnEvent(const telemetry::ProgressEvent& event) override {
    if (event.stage != stage) return;
    if (event.phase == "start") token->Cancel();
    if (event.phase == "end") stage_ended = true;
  }
  CancelToken* token;
  std::string stage;
  bool stage_ended = false;
};

TEST_F(FaultInjectionTest, AutoKPipelineCancelledDuringSelectK) {
  CancelToken cancel;
  CancelAtStageSink sink(&cancel, "pipeline.select_k");
  telemetry::SetProgressSink(&sink);
  DiscoveryOptions opts;
  opts.k = 0;  // auto-k: the select_k stage runs
  opts.max_k = 5;
  opts.budget.cancel = &cancel;
  auto r = DiscoverMultipleClusterings(BlobData(), opts);
  telemetry::SetProgressSink(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The cancel stops k-selection itself, not a later stage.
  EXPECT_FALSE(sink.stage_ended);
}

// ---- Spectral eigensolver budget checks -----------------------------------

using SteadyClock = std::chrono::steady_clock;

double MsBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// Polls the flight recorder from a second thread and calls `on_open` on
// that thread the first time a span named `name` has been entered (open
// spans and the recent-event ring both carry the name). The destructor
// joins the thread, so whatever `on_open` wrote may be read once the
// watcher is out of scope.
class SpanWatcher {
 public:
  SpanWatcher(const char* name, std::function<void()> on_open) {
    blackbox::Reset();
    thread_ = std::thread([this, name, on_open = std::move(on_open)] {
      while (!done_.load()) {
        if (blackbox::FlightRecordJson().find(name) != std::string::npos) {
          on_open();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~SpanWatcher() {
    done_.store(true);
    thread_.join();
  }
  SpanWatcher(const SpanWatcher&) = delete;
  SpanWatcher& operator=(const SpanWatcher&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// n = 1500: large enough that the eigensolve runs for hundreds of
// milliseconds, while one of its iterations (an n x n times n x 11
// product) takes a few milliseconds.
Matrix LargeBlobData() {
  return MakeBlobs({{{0, 0}, 1.0, 500}, {{6, 0}, 1.0, 500},
                    {{3, 5}, 1.0, 500}},
                   23)
      ->data();
}

// The promised latency is about one eigensolver iteration. At n = 1500
// an iteration takes 5-15 ms in an optimized or ASan build, so the bound
// is 50 ms, far below the ~0.5 s of the whole solve. Where one iteration
// is slower than 25 ms (ThreadSanitizer makes it ~0.3 s), the bound is
// two iterations, timed here as one TopKEigen call that an expired
// deadline stops after its first iteration.
double EigenLatencyBoundMs(const Matrix& data) {
  const Matrix a = NormalizedAffinity(GaussianKernelMatrix(data, 0.0));
  const SteadyClock::time_point start = SteadyClock::now();
  const auto one = TopKEigen(a, 3, kDefaultEigenTol, RunBudget::Deadline(1e-6));
  EXPECT_EQ(one.value().iterations, 1u);
  return std::max(50.0, 2.0 * MsBetween(start, SteadyClock::now()));
}

TEST_F(FaultInjectionTest, SpectralCancelDuringEigensolveReturnsPromptly) {
  const Matrix data = LargeBlobData();
  const double bound_ms = EigenLatencyBoundMs(data);
  CancelToken cancel;
  SpectralOptions opts;
  opts.k = 3;
  opts.budget.cancel = &cancel;
  Result<Clustering> result = Status::Internal("not run");
  SteadyClock::time_point tripped, returned;
  bool seen = false;
  {
    SpanWatcher watcher("cluster.spectral.eigen", [&] {
      tripped = SteadyClock::now();
      cancel.Cancel();
      seen = true;
    });
    result = RunSpectral(data, opts);
    returned = SteadyClock::now();
  }
  ASSERT_TRUE(seen) << "the eigen span was never observed open";
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LE(MsBetween(tripped, returned), bound_ms);
}

TEST_F(FaultInjectionTest, SpectralDeadlineDuringEigensolveReturnsPromptly) {
  // The deadline falls inside the eigensolve or, on a slow build, before
  // it (then the first iteration notices). Latency is measured from the
  // later of the deadline and the span opening.
  constexpr int kDeadlineMs = 200;
  const Matrix data = LargeBlobData();
  const double bound_ms = EigenLatencyBoundMs(data);
  SpectralOptions opts;
  opts.k = 3;
  opts.budget.deadline_ms = kDeadlineMs;
  Result<Clustering> result = Status::Internal("not run");
  SteadyClock::time_point opened, deadline, returned;
  bool seen = false;
  {
    SpanWatcher watcher("cluster.spectral.eigen", [&] {
      opened = SteadyClock::now();
      seen = true;
    });
    deadline = SteadyClock::now() + std::chrono::milliseconds(kDeadlineMs);
    result = RunSpectral(data, opts);
    returned = SteadyClock::now();
  }
  ASSERT_TRUE(seen) << "the eigen span was never observed open";
  // A deadline yields the partial result RunBudget promises.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels.size(), 1500u);
  EXPECT_FALSE(result->converged);
  EXPECT_LE(MsBetween(std::max(opened, deadline), returned), bound_ms);
}

TEST_F(FaultInjectionTest, MscCancelDuringHsicPhaseSkipsRemainingPairs) {
  // Six dimensions make 15 Hsic calls, two kernel spans each. Cancelled
  // once the first kernel span opens, mSC must stop at the next pair
  // instead of finishing the phase and failing at the view loop.
  auto ds = MakeBlobs({{{0, 0, 0, 0, 0, 0}, 1.0, 400},
                       {{5, 5, 5, 5, 5, 5}, 1.0, 400}},
                      29);
  CancelToken cancel;
  MscOptions opts;
  opts.k = 2;
  opts.budget.cancel = &cancel;
  trace::Reset();
  trace::Enable();
  Result<MscResult> result = Status::Internal("not run");
  {
    SpanWatcher watcher("stats.hsic.kernel", [&] { cancel.Cancel(); });
    result = RunMultipleSpectralViews(ds->data(), opts);
  }
  trace::Disable();
  size_t kernel_spans = 0;
  for (const trace::SpanStats& span : trace::Summary()) {
    if (span.name == "stats.hsic.kernel") {
      kernel_spans = span.count;
    }
  }
  trace::Reset();
  ASSERT_TRUE(cancel.cancelled()) << "the kernel span was never observed";
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_LT(kernel_spans, 2u * 15u);
}

TEST_F(FaultInjectionTest, MvSpectralHonoursBudget) {
  const Matrix data = BlobData();
  CancelToken cancel;
  cancel.Cancel();
  MvSpectralOptions opts;
  opts.k = 3;
  opts.budget.cancel = &cancel;
  auto cancelled = RunMvSpectral({data, data}, opts);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  opts.budget = RunBudget::Deadline(1e-6);
  auto partial = RunMvSpectral({data, data}, opts);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->labels.size(), data.rows());
  EXPECT_FALSE(partial->converged);
}

TEST_F(FaultInjectionTest, RetrySeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(RetrySeed(7, 0), 7u);
  EXPECT_EQ(RetrySeed(7, 1), RetrySeed(7, 1));
  EXPECT_NE(RetrySeed(7, 1), 7u);
  EXPECT_NE(RetrySeed(7, 1), RetrySeed(7, 2));
  EXPECT_NE(RetrySeed(7, 1), RetrySeed(8, 1));
}

TEST_F(FaultInjectionTest, CleanPipelineRunIsNotDegraded) {
  DiscoveryOptions opts;
  opts.k = 2;
  opts.seed = 4;
  auto r = DiscoverMultipleClusterings(BlobData(), opts);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->degraded);
  EXPECT_TRUE(r->warnings.empty());
  ASSERT_EQ(r->attempts.size(), 1u);
  EXPECT_EQ(r->attempts[0].retries, 0u);
  EXPECT_EQ(r->strategy_name, "dec-kmeans");
}

// ---- Injected faults -----------------------------------------------------

#if defined(MULTICLUST_FAULT_INJECTION)

TEST_F(FaultInjectionTest, InjectedDeadlineStopsRunEarly) {
  fault::Arm({"kmeans", FaultKind::kExpireDeadline, 1, 0});
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 1;
  opts.seed = 5;
  auto c = RunKMeans(BlobData(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->iterations, 1u);
  EXPECT_FALSE(c->converged);
  EXPECT_GT(fault::TotalFires(), 0u);
}

// ---- The restart rules, one table over every multi-restart algorithm ----

TEST_F(FaultInjectionTest, PoisonedRestartIsSkippedDeterministically) {
  const Matrix data = BlobData();
  for (const test::RestartAlgorithm& a : test::RestartAlgorithms(3, 5)) {
    SCOPED_TRACE(a.site);
    const auto run = [&] {
      // The single armed fire poisons restart 0; restart 1 must win.
      fault::Reset();
      fault::Arm({a.site, FaultKind::kInjectNaN, 0, 1});
      test::RestartRun out = a.run(data, 2);
      EXPECT_EQ(fault::TotalFires(a.site), 1u);
      return out;
    };
    const test::RestartRun first = run();
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    EXPECT_TRUE(std::isfinite(first.objective));
    EXPECT_TRUE(first.converged);
    EXPECT_EQ(first.diagnostics.trace.winning_restart, 1u);
    const test::RestartRun second = run();
    ASSERT_TRUE(second.status.ok()) << second.status.ToString();
    EXPECT_EQ(first.labels, second.labels);
    EXPECT_EQ(std::memcmp(&first.objective, &second.objective,
                          sizeof(double)),
              0);
  }
}

TEST_F(FaultInjectionTest, AllRestartsPoisonedSurfacesComputationError) {
  const Matrix data = BlobData();
  for (const test::RestartAlgorithm& a : test::RestartAlgorithms(3, 5)) {
    SCOPED_TRACE(a.site);
    fault::Reset();
    fault::Arm({a.site, FaultKind::kInjectNaN, 0, 0});
    const test::RestartRun out = a.run(data, 3);
    EXPECT_EQ(out.status.code(), StatusCode::kComputationError)
        << out.status.ToString();
  }
}

TEST_F(FaultInjectionTest, ExpiredDeadlineInRestartZeroSkipsLaterRestarts) {
  const Matrix data = BlobData();
  for (const test::RestartAlgorithm& a : test::RestartAlgorithms(3, 5)) {
    SCOPED_TRACE(a.site);
    fault::Reset();
    fault::Arm({a.site, FaultKind::kExpireDeadline, 1, 1});
    const test::RestartRun out = a.run(data, 3);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(fault::TotalFires(a.site), 1u);
    EXPECT_FALSE(out.converged);
    ASSERT_FALSE(out.diagnostics.trace.points.empty());
    for (const ConvergencePoint& p : out.diagnostics.trace.points) {
      EXPECT_EQ(p.restart, 0u) << "iteration " << p.iteration;
    }
    EXPECT_EQ(out.diagnostics.trace.winning_restart, 0u);
    // A stopped run still labels every object.
    ASSERT_FALSE(out.labels.empty());
    EXPECT_GE(*std::min_element(out.labels.begin(), out.labels.end()), 0);
  }
}

TEST_F(FaultInjectionTest, RetryWithReseedRecoversDeterministically) {
  const Matrix data = BlobData();
  RetryPolicy policy;
  policy.max_retries = 2;
  auto attempt_once = [&data, &policy](RunDiagnostics* diag) {
    // One armed fire fails the first attempt entirely (single restart);
    // the SplitMix-reseeded retry runs with the injector exhausted.
    fault::Reset();
    fault::Arm({"kmeans", FaultKind::kInjectNaN, 0, 1});
    return RunWithRetry(
        policy, /*base_seed=*/7,
        [&data](uint64_t seed) {
          KMeansOptions o;
          o.k = 3;
          o.restarts = 1;
          o.seed = seed;
          return RunKMeans(data, o);
        },
        diag);
  };
  RunDiagnostics d1, d2;
  auto r1 = attempt_once(&d1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(d1.retries, 1u);
  auto r2 = attempt_once(&d2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(d2.retries, 1u);
  // Bit-identical recovery: same reseed sequence, same winner.
  EXPECT_EQ(r1->labels, r2->labels);
  EXPECT_DOUBLE_EQ(r1->quality, r2->quality);
}

TEST_F(FaultInjectionTest, RetryExhaustionSurfacesErrorAndDiagnostics) {
  fault::Arm({"kmeans", FaultKind::kInjectNaN, 0, 0});  // every iteration
  RetryPolicy policy;
  policy.max_retries = 1;
  RunDiagnostics diag;
  auto r = RunWithRetry(
      policy, /*base_seed=*/7,
      [](uint64_t seed) {
        KMeansOptions o;
        o.k = 3;
        o.restarts = 1;
        o.seed = seed;
        return RunKMeans(BlobData(), o);
      },
      &diag);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
  EXPECT_EQ(diag.retries, 1u);
  EXPECT_FALSE(diag.note.empty());
}

TEST_F(FaultInjectionTest, ForcedNonConvergenceIsReported) {
  fault::Arm({"kmeans", FaultKind::kForceNonConvergence, 0, 0});
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 1;
  opts.max_iters = 5;
  auto c = RunKMeans(BlobData(), opts);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->iterations, 5u);
  EXPECT_FALSE(c->converged);
}

TEST_F(FaultInjectionTest, PipelineFallsBackWhenStrategyKeepsFailing) {
  const Matrix data = BlobData();
  auto run = [&data] {
    // dec-kmeans is poisoned on every iteration, so the requested strategy
    // and all its retries fail; meta clustering (whose base k-means runs at
    // the "kmeans" site) must take over.
    fault::Reset();
    fault::Arm({"dec-kmeans", FaultKind::kInjectNaN, 0, 0});
    DiscoveryOptions opts;
    opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
    opts.k = 2;
    opts.seed = 4;
    opts.retry.max_retries = 1;
    return DiscoverMultipleClusterings(data, opts);
  };
  auto r = run();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->degraded);
  EXPECT_FALSE(r->warnings.empty());
  EXPECT_GE(r->attempts.size(), 2u);
  EXPECT_EQ(r->strategy_name, "meta-clustering");
  EXPECT_GT(r->solutions.size(), 0u);
  // The whole degradation cascade is deterministic.
  auto again = run();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(r->strategy_name, again->strategy_name);
  EXPECT_EQ(r->solutions.Labels(), again->solutions.Labels());
}

TEST_F(FaultInjectionTest, PipelineWithoutFallbackSurfacesTheError) {
  fault::Arm({"dec-kmeans", FaultKind::kInjectNaN, 0, 0});
  DiscoveryOptions opts;
  opts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  opts.k = 2;
  opts.retry.max_retries = 1;
  opts.allow_fallback = false;
  auto r = DiscoverMultipleClusterings(BlobData(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
}

// ---- fault model v2 -------------------------------------------------------

TEST_F(FaultInjectionTest, KindNamesRoundTripThroughParse) {
  for (FaultKind kind :
       {FaultKind::kInjectNaN, FaultKind::kForceNonConvergence,
        FaultKind::kExpireDeadline, FaultKind::kCrash,
        FaultKind::kIoWriteFail, FaultKind::kIoShortWrite,
        FaultKind::kIoFsyncFail, FaultKind::kIoRenameFail,
        FaultKind::kIoTornWrite, FaultKind::kCheckpointCorrupt,
        FaultKind::kAllocFail, FaultKind::kRaiseSegv}) {
    FaultKind parsed;
    ASSERT_TRUE(ParseFaultKind(FaultKindName(kind), &parsed))
        << FaultKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  FaultKind unused;
  EXPECT_FALSE(ParseFaultKind("no_such_kind", &unused));
}

TEST_F(FaultInjectionTest, TotalFiresIsQueryablePerSite) {
  fault::Arm({"alpha", FaultKind::kInjectNaN, 0, 0});
  fault::Arm({"beta", FaultKind::kInjectNaN, 0, 0});
  EXPECT_TRUE(fault::ShouldFire("alpha", FaultKind::kInjectNaN, 0));
  EXPECT_TRUE(fault::ShouldFire("alpha", FaultKind::kInjectNaN, 1));
  EXPECT_TRUE(fault::ShouldFire("beta", FaultKind::kInjectNaN, 0));
  EXPECT_EQ(fault::TotalFires(), 3u);
  EXPECT_EQ(fault::TotalFires("alpha"), 2u);
  EXPECT_EQ(fault::TotalFires("beta"), 1u);
  EXPECT_EQ(fault::TotalFires("gamma"), 0u);
}

TEST_F(FaultInjectionTest, ProbabilisticSpecFiresReproduciblyPerSeed) {
  auto pattern = [](uint64_t seed) {
    fault::Reset();
    FaultSpec spec;
    spec.site = "p";
    spec.kind = FaultKind::kInjectNaN;
    spec.probability = 0.5;
    spec.seed = seed;
    fault::Arm(spec);
    std::vector<bool> fired;
    for (size_t i = 0; i < 64; ++i) {
      fired.push_back(fault::ShouldFire("p", FaultKind::kInjectNaN, i));
    }
    fault::Reset();
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  EXPECT_EQ(a, pattern(42));  // bit-reproducible per seed
  EXPECT_NE(a, pattern(43));  // and actually seed-dependent
  // p = 0.5 over 64 flips: both outcomes occur (probability ~2^-64 not to).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST_F(FaultInjectionTest, ProbabilityZeroNeverFiresAndOneAlwaysFires) {
  FaultSpec never;
  never.site = "z";
  never.kind = FaultKind::kInjectNaN;
  never.probability = 0.0;
  fault::Arm(never);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_FALSE(fault::ShouldFire("z", FaultKind::kInjectNaN, i));
  }
  fault::Reset();
  FaultSpec always;
  always.site = "z";
  always.kind = FaultKind::kInjectNaN;
  always.probability = 1.0;
  fault::Arm(always);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(fault::ShouldFire("z", FaultKind::kInjectNaN, i));
  }
}

// The documented concurrency contract: arming from one thread while
// another is inside its hook-check loop is safe, the new fault becomes
// visible no later than the next check, and a max_fires=1 fault fires on
// exactly one of many racing threads.
TEST_F(FaultInjectionTest, ConcurrentArmAndCheckIsSafe) {
  constexpr int kCheckers = 4;
  constexpr int kChecksPerThread = 2000;
  std::atomic<int> observed_fires{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kCheckers + 1);
  for (int t = 0; t < kCheckers; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kChecksPerThread; ++i) {
        if (fault::ShouldFire("race", FaultKind::kInjectNaN,
                              static_cast<size_t>(i))) {
          observed_fires.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {
    go.store(true, std::memory_order_release);
    for (int i = 0; i < 50; ++i) {
      FaultSpec spec;
      spec.site = i == 25 ? "race" : "elsewhere";
      spec.kind = FaultKind::kInjectNaN;
      spec.max_fires = i == 25 ? 1 : 0;
      fault::Arm(spec);
    }
  });
  for (std::thread& t : threads) t.join();
  // The single-shot "race" fault fired at most once across all racing
  // threads (0 is possible: the checkers may drain before the arm lands).
  EXPECT_LE(observed_fires.load(), 1);
  EXPECT_EQ(fault::TotalFires("race"),
            static_cast<size_t>(observed_fires.load()));
}

TEST_F(FaultInjectionTest, InjectedAllocFailureDegradesToComputationError) {
  KMeansOptions opts;
  opts.k = 3;
  opts.restarts = 1;
  opts.seed = 5;
  fault::Arm({"kmeans", FaultKind::kAllocFail, 1, 1});
  auto r = RunKMeans(BlobData(), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kComputationError);
  EXPECT_NE(r.status().message().find("allocation"), std::string::npos);
  // The pipeline's retry machinery treats it like any recoverable
  // computation fault: a reseeded retry succeeds once the fault is spent.
  fault::Reset();
  fault::Arm({"dec-kmeans", FaultKind::kAllocFail, 0, 1});
  DiscoveryOptions dopts;
  dopts.strategy = DiscoveryStrategy::kDecorrelatedKMeans;
  dopts.k = 2;
  auto report = DiscoverMultipleClusterings(BlobData(), dopts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->solutions.size(), 0u);
}

#endif  // MULTICLUST_FAULT_INJECTION

}  // namespace
}  // namespace multiclust
