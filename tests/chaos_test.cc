// Chaos-campaign suite: schedule JSON round-trips, generator determinism,
// clean-schedule baselines, the invariant checker, delta-debugging
// shrinking, and the end-to-end bug-detection oracle — re-introducing the
// torn-write-rotates-out-last-good-snapshot bug (by disabling the
// Checkpointer's read-back verification) must be caught by the campaign
// and shrunk to a minimal schedule.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/checkpoint.h"
#include "common/fault.h"

namespace multiclust {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

// ---- schedule document ----------------------------------------------------

TEST_F(ChaosTest, ScheduleJsonRoundTrips) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const chaos::RunConfig config = chaos::GenerateConfig(seed, true);
    const std::string doc = chaos::RunConfigToJson(config);
    auto parsed = chaos::ParseRunConfigJson(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(chaos::RunConfigToJson(*parsed), doc) << "seed " << seed;
  }
}

TEST_F(ChaosTest, ParseRejectsBadDocuments) {
  EXPECT_FALSE(chaos::ParseRunConfigJson("not json").ok());
  EXPECT_FALSE(chaos::ParseRunConfigJson("{}").ok());
  EXPECT_FALSE(chaos::ParseRunConfigJson(
                   R"({"schema_version":1,"kind":"multiclust.chaos_schedule",)"
                   R"("workload":"no-such-algorithm"})")
                   .ok());
  EXPECT_FALSE(chaos::ParseRunConfigJson(
                   R"({"schema_version":1,"kind":"multiclust.chaos_schedule",)"
                   R"("workload":"kmeans","faults":[{"site":"kmeans",)"
                   R"("kind":"no_such_fault"}]})")
                   .ok());
}

TEST_F(ChaosTest, GeneratorIsDeterministic) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    EXPECT_EQ(chaos::RunConfigToJson(chaos::GenerateConfig(seed, false)),
              chaos::RunConfigToJson(chaos::GenerateConfig(seed, false)));
  }
}

TEST_F(ChaosTest, GeneratorCoversEveryWorkload) {
  std::vector<bool> seen(chaos::WorkloadNames().size(), false);
  for (uint64_t seed = 0; seed < 32; ++seed) {
    const chaos::RunConfig config = chaos::GenerateConfig(seed, true);
    for (size_t i = 0; i < chaos::WorkloadNames().size(); ++i) {
      if (config.workload == chaos::WorkloadNames()[i]) seen[i] = true;
    }
    EXPECT_FALSE(config.schedule.empty());
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << chaos::WorkloadNames()[i];
  }
}

// ---- clean schedules ------------------------------------------------------

TEST_F(ChaosTest, EveryWorkloadRunsCleanWithEmptySchedule) {
  for (const std::string& workload : chaos::WorkloadNames()) {
    chaos::RunConfig config;
    config.workload = workload;
    config.seed = 11;
    config.quick = true;
    auto outcome = chaos::RunSchedule(config);
    ASSERT_TRUE(outcome.ok()) << workload;
    EXPECT_TRUE(outcome->status.ok()) << workload;
    EXPECT_TRUE(outcome->violations.empty())
        << workload << ": " << outcome->violations[0].invariant << " — "
        << outcome->violations[0].detail;
    // No faults armed: the checkpointed run must equal the bare baseline.
    EXPECT_EQ(outcome->digest, outcome->baseline_digest) << workload;
    EXPECT_EQ(outcome->fault_fires, 0u) << workload;
  }
}

TEST_F(ChaosTest, CrashScheduleResumesBitIdentically) {
  chaos::RunConfig config;
  config.workload = "gmm";
  config.seed = 5;
  config.quick = true;
  config.keep_last = 2;
  FaultSpec crash;
  crash.site = "gmm";
  crash.kind = FaultKind::kCrash;
  crash.at_iteration = 3;
  crash.max_fires = 1;
  config.schedule.push_back(crash);
  auto outcome = chaos::RunSchedule(config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->status.ok()) << outcome->status.ToString();
  EXPECT_EQ(outcome->resume_cycles, 1u);
  EXPECT_TRUE(outcome->violations.empty())
      << outcome->violations[0].detail;
  EXPECT_EQ(outcome->digest, outcome->baseline_digest);
}

TEST_F(ChaosTest, SmallCampaignHasNoViolations) {
  chaos::CampaignOptions options;
  options.base_seed = 1;
  options.num_seeds = 30;
  options.quick = true;
  const chaos::CampaignResult result = chaos::RunCampaign(options);
  EXPECT_EQ(result.runs, 30u);
  ASSERT_TRUE(result.failures.empty())
      << result.failures[0].violations[0].invariant << " — "
      << result.failures[0].violations[0].detail << " (workload "
      << result.failures[0].config.workload << ")";
  EXPECT_GT(result.total_fault_fires, 0u);
}

// ---- shrinking ------------------------------------------------------------

FaultSpec NamedFault(const std::string& site) {
  FaultSpec spec;
  spec.site = site;
  spec.kind = FaultKind::kInjectNaN;
  spec.max_fires = 1;
  return spec;
}

TEST_F(ChaosTest, ShrinkFindsOneMinimalSubsetWithSyntheticPredicate) {
  chaos::RunConfig config;
  for (const char* site : {"a", "b", "c", "d", "e"}) {
    config.schedule.push_back(NamedFault(site));
  }
  // "Fails" exactly when both b and d are present — the 1-minimal failing
  // subset the shrinker must converge to, regardless of the extra noise.
  auto still_fails = [](const chaos::RunConfig& probe) {
    bool b = false, d = false;
    for (const FaultSpec& f : probe.schedule) {
      if (f.site == "b") b = true;
      if (f.site == "d") d = true;
    }
    return b && d;
  };
  const std::vector<FaultSpec> minimal =
      chaos::ShrinkSchedule(config, still_fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0].site, "b");
  EXPECT_EQ(minimal[1].site, "d");
}

TEST_F(ChaosTest, ShrinkKeepsSingleFaultSchedules) {
  chaos::RunConfig config;
  config.schedule.push_back(NamedFault("only"));
  size_t probes = 0;
  const std::vector<FaultSpec> minimal = chaos::ShrinkSchedule(
      config, [&](const chaos::RunConfig&) {
        ++probes;
        return true;
      });
  EXPECT_EQ(minimal.size(), 1u);
  EXPECT_EQ(probes, 0u);  // nothing to remove, nothing to probe
}

// ---- the bug-detection oracle ---------------------------------------------

// Reverting the rotation fix (snapshots only count once read-back
// verification passes) must be caught: with verification disabled, a
// silently torn write is counted as a good snapshot, rotation deletes the
// last good file, and the checkpoint-survivor invariant fires. The
// campaign must then shrink the schedule to the torn-write fault alone.
TEST_F(ChaosTest, ReintroducedRotationBugIsCaughtAndShrunk) {
  chaos::RunConfig config;
  config.workload = "kmeans";
  config.seed = 7;
  config.quick = true;
  config.keep_last = 1;  // tightest rotation: one bad write is fatal
  FaultSpec torn;
  torn.site = "checkpoint";
  torn.kind = FaultKind::kIoTornWrite;
  torn.at_iteration = 0;
  torn.max_fires = 0;  // tear every write
  config.schedule.push_back(torn);
  // Decoy faults the shrinker must discard.
  FaultSpec decoy1;
  decoy1.site = "checkpoint";
  decoy1.kind = FaultKind::kIoFsyncFail;
  decoy1.at_iteration = 2;
  decoy1.max_fires = 1;
  config.schedule.push_back(decoy1);
  FaultSpec decoy2 = NamedFault("gmm");  // wrong site, never fires
  config.schedule.push_back(decoy2);

  // With the fix in place the schedule is harmless: every torn write is
  // detected, removed and warned about; no snapshot ever "counts".
  {
    auto outcome = chaos::RunSchedule(config);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->violations.empty())
        << outcome->violations[0].detail;
    EXPECT_EQ(outcome->snapshots_written, 0u);
    EXPECT_EQ(outcome->digest, outcome->baseline_digest);
  }

  // Revert the fix: verification off reintroduces the original bug.
  const bool previous = ckpt::SetVerifyAfterWriteForTest(false);
  auto outcome = chaos::RunSchedule(config);
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome->violations.empty());
  EXPECT_EQ(outcome->violations[0].invariant, "checkpoint-survivor");

  const std::vector<FaultSpec> minimal = chaos::ShrinkSchedule(config);
  ckpt::SetVerifyAfterWriteForTest(previous);

  ASSERT_LE(minimal.size(), 2u);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0].kind, FaultKind::kIoTornWrite);
  EXPECT_EQ(minimal[0].site, "checkpoint");
}

// Injected NaN / allocation faults must degrade to kComputationError — the
// status-consistency invariant accepts that and nothing else.
TEST_F(ChaosTest, ComputationFaultsDegradeToComputationError) {
  chaos::RunConfig config;
  config.workload = "co-em";
  config.seed = 9;
  config.quick = true;
  config.with_checkpoint = false;
  FaultSpec alloc;
  alloc.site = "co-em";
  alloc.kind = FaultKind::kAllocFail;
  alloc.at_iteration = 1;
  alloc.max_fires = 1;
  config.schedule.push_back(alloc);
  auto outcome = chaos::RunSchedule(config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->status.code(), StatusCode::kComputationError);
  EXPECT_TRUE(outcome->violations.empty())
      << outcome->violations[0].detail;
}

// Probabilistic specs replay bit-identically: the same schedule JSON fires
// the same coins, so the whole outcome (digest, fires, status) matches.
TEST_F(ChaosTest, ProbabilisticSchedulesReplayIdentically) {
  chaos::RunConfig config;
  config.workload = "kmeans";
  config.seed = 13;
  config.quick = true;
  FaultSpec flaky;
  flaky.site = "checkpoint";
  flaky.kind = FaultKind::kIoWriteFail;
  flaky.at_iteration = 0;
  flaky.max_fires = 0;
  flaky.probability = 0.5;
  flaky.seed = 0xFEEDFACE;
  config.schedule.push_back(flaky);
  auto first = chaos::RunSchedule(config);
  auto second = chaos::RunSchedule(config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->fault_fires, second->fault_fires);
  EXPECT_EQ(first->digest, second->digest);
  EXPECT_EQ(first->status.code(), second->status.code());
  EXPECT_TRUE(first->violations.empty());
}

}  // namespace
}  // namespace multiclust
