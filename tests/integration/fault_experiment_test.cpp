// End-to-end fault-injection runs: crashes, outages and degradation windows
// threaded through full experiments. Asserts the recovery metrics
// (retries, re-transferred bytes, fault downtime, time-to-recover) and the
// determinism contract — same seed and fault spec, byte-identical virtual
// timeline.
#include <gtest/gtest.h>

#include <string>

#include "cloud/experiment.h"
#include "integration/result_compare.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

/// Same scaled-down scenario as experiment_test.cpp, plus a fault spec.
ExperimentConfig fault_config(core::Approach a, const std::string& spec) {
  ExperimentConfig cfg;
  cfg.approach = a;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.image = storage::ImageConfig{512 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.vm.memory.ram_bytes = 512 * kMiB;
  cfg.vm.memory.page_bytes = kMiB;
  cfg.vm.memory.base_used_bytes = 64 * kMiB;
  cfg.vm.cache.capacity_bytes = 128 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 64 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.workload = WorkloadKind::kIor;
  cfg.ior.iterations = 3;
  cfg.ior.file_bytes = 96 * kMiB;
  cfg.ior.block_bytes = kMiB;
  cfg.ior.file_offset = 128 * kMiB;
  cfg.first_migration_at = 2.0;
  cfg.max_sim_time = 600.0;
  std::string err;
  EXPECT_TRUE(sim::parse_fault_spec(spec, &cfg.faults, &err)) << err;
  return cfg;
}

TEST(FaultExperiment, SourceCrashAbortsThenRetriesToCompletion) {
  // Crash the migrating VM's host 0.2 s into the active phase — well before
  // control can have moved — and bring it back 4 s later.
  Experiment exp(fault_config(core::Approach::kHybrid, "src-crash@2.2+4"));
  ExperimentResult res = exp.run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.recovery.faults_injected, 1u);
  ASSERT_EQ(res.migrations.size(), 1u);
  EXPECT_GE(res.recovery.total_retries, 1);
  EXPECT_EQ(res.recovery.migrations_abandoned, 0);
  EXPECT_GT(res.recovery.fault_downtime_s, 0.0);  // the guest was paused on the dead host
  EXPECT_GT(res.recovery.max_time_to_recover_s, 0.0);
  EXPECT_GT(res.migrations[0].t_first_abort, 0.0);
  EXPECT_GT(res.migrations[0].t_control_transfer, res.migrations[0].t_first_abort);
}

TEST(FaultExperiment, DestCrashLosesPartialReplicaAndRetransfers) {
  Experiment exp(fault_config(core::Approach::kHybrid, "dst-crash@2.3+4"));
  ExperimentResult res = exp.run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GE(res.recovery.total_retries, 1);
  // The destination's partial replica died with the node: every chunk
  // pushed before the crash crosses the wire again.
  EXPECT_GT(res.recovery.retransferred_bytes, 0.0);
}

TEST(FaultExperiment, SameSeedSameFaultsByteIdenticalTimeline) {
  const char* spec = "src-crash@2.2+4;degrade@8+5*0.25;flap@15+2";
  ExperimentResult a = Experiment(fault_config(core::Approach::kHybrid, spec)).run();
  ExperimentResult b = Experiment(fault_config(core::Approach::kHybrid, spec)).run();
  expect_virtual_fields_equal(a, b);
}

TEST(FaultExperiment, SeededRandomPlanAppliesEveryCategory) {
  Experiment exp(fault_config(
      core::Approach::kHybrid,
      // All six categories strike inside [2, 5) — early enough that every
      // event lands before the (short) experiment finishes.
      "rand:crashes=1,dst-crashes=1,degrades=1,flaps=1,slow=1,outages=1,"
      "from=2,span=3,dur=3"));
  ExperimentResult res = exp.run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.recovery.faults_injected, 6u);
}

TEST(FaultExperiment, RepositoryOutageIsWaitedOut) {
  Experiment exp(fault_config(core::Approach::kHybrid, "repo-outage@2.5+5"));
  ExperimentResult res = exp.run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.recovery.faults_injected, 1u);
  EXPECT_EQ(res.recovery.migrations_abandoned, 0);
}

TEST(FaultExperiment, EveryApproachSurvivesASourceCrash) {
  for (core::Approach a :
       {core::Approach::kHybrid, core::Approach::kMirror, core::Approach::kPostcopy,
        core::Approach::kPrecopy, core::Approach::kPvfsShared}) {
    Experiment exp(fault_config(a, "src-crash@2.2+4"));
    ExperimentResult res = exp.run();
    EXPECT_TRUE(res.completed) << core::approach_name(a) << ": " << res.error;
    ASSERT_EQ(res.migrations.size(), 1u) << core::approach_name(a);
    EXPECT_GT(res.migrations[0].t_control_transfer, 0.0) << core::approach_name(a);
    EXPECT_EQ(res.recovery.migrations_abandoned, 0) << core::approach_name(a);
  }
}

TEST(FaultExperiment, SingleAttemptCrashAbandonsButExperimentCompletes) {
  ExperimentConfig cfg = fault_config(core::Approach::kHybrid, "src-crash@2.2+4");
  cfg.approach_cfg.max_attempts = 1;
  Experiment exp(std::move(cfg));
  ExperimentResult res = exp.run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.recovery.migrations_abandoned, 1);
  ASSERT_EQ(res.migrations.size(), 1u);
  EXPECT_TRUE(res.migrations[0].abandoned);
  EXPECT_DOUBLE_EQ(res.migrations[0].t_control_transfer, 0.0);
}

TEST(FaultExperiment, FaultFreeSpecLeavesMetricsZero) {
  ExperimentConfig cfg = fault_config(core::Approach::kHybrid, "none");
  EXPECT_FALSE(cfg.faults.enabled());
  ExperimentResult res = Experiment(std::move(cfg)).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_EQ(res.recovery.faults_injected, 0u);
  EXPECT_EQ(res.recovery.total_retries, 0);
  EXPECT_DOUBLE_EQ(res.recovery.retransferred_bytes, 0.0);
  EXPECT_DOUBLE_EQ(res.recovery.fault_downtime_s, 0.0);
}

/// Byte-identity under a generative churn stream with a correlated failure
/// domain: repeated runs AND both solver regimes (incremental vs always-
/// global full solve) must agree on every virtual-time recovery field. The
/// domain covers the migration destination plus an idle node, so a
/// correlated event atomically kills two nodes and forces a salvage/retry.
TEST(ChurnExperiment, ChurnWithDomainsByteIdenticalAcrossSolverRegimes) {
  const char* spec =
      "churn:crash-mtbf=1,crash-mttr=1,domain-mtbf=4,domain-mttr=1,"
      "factor=0.3,from=1,until=20;domains:rack0=1-2";
  auto run = [&](int incremental) {
    ExperimentConfig cfg = fault_config(core::Approach::kHybrid, spec);
    cfg.audit = true;
    cfg.ior.iterations = 12;  // long enough for the churn stream to bite
    cfg.cluster.network.incremental = incremental;
    return Experiment(std::move(cfg)).run();
  };
  const ExperimentResult a = run(1);
  const ExperimentResult a2 = run(1);
  const ExperimentResult b = run(0);
  EXPECT_TRUE(a.completed) << a.error;
  EXPECT_GE(a.recovery.faults_injected, 1u);
  EXPECT_GE(a.recovery.correlated_events, 1u);
  EXPECT_GE(a.recovery.node_crashes, 2u);  // each domain event kills 2 nodes
  EXPECT_GE(a.recovery.total_retries, 1);  // churn aborted at least one attempt
  EXPECT_GE(a.recovery.migrations_recovered, 1u);
  expect_virtual_fields_equal(a, a2);  // rerun
  expect_virtual_fields_equal(a, b);   // incremental vs full-solve
  // The auditor ran and the run is invariant-clean.
  EXPECT_GT(a.audit_checks, 0u);
  EXPECT_TRUE(a.audit_violations.empty())
      << "first violation: " << a.audit_violations.front();
}

/// The shared-constraint capacity certificate under its full workload in a
/// Debug build, where every certified epoch also runs the usage walk and
/// asserts it finds no violation. Four-node racks put the four migrations
/// across one 250 MB/s uplink pair, which binds while two or more of them
/// stream and not otherwise; NIC degrade windows move the largest NIC
/// capacity the certificate is built on.
TEST(ChurnExperiment, OversubscribedDegradeChurnWalksAndCertifies) {
  ExperimentConfig cfg = fault_config(
      core::Approach::kHybrid,
      "churn:degrade-mtbf=3,degrade-mttr=2,factor=0.4,from=1,until=30");
  cfg.cluster.nodes_per_switch = 4;
  cfg.cluster.switch_uplink_Bps = 250e6;
  cfg.num_vms = 4;
  cfg.num_destinations = 4;
  cfg.num_migrations = 4;
  cfg.migration_interval_s = 1.0;
  cfg.audit = true;
  const ExperimentResult res = Experiment(std::move(cfg)).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GE(res.recovery.faults_injected, 1u);
  EXPECT_GT(res.audit_checks, 0u);
  EXPECT_TRUE(res.audit_violations.empty())
      << "first violation: " << res.audit_violations.front();
  EXPECT_GT(res.engine_validation_walks, 0u);
  EXPECT_GT(res.engine_certified_epochs, 0u);
  EXPECT_GT(res.engine_escalations, 0u);
}

/// Recovery percentiles: recovered migrations feed the p50/p99/p999 samples
/// and respect sample ordering (p50 <= p99 <= p999 <= max).
TEST(ChurnExperiment, RecoveryPercentilesOrderedAndPopulated) {
  const char* spec = "churn:crash-mtbf=1,crash-mttr=1,from=1,until=20";
  ExperimentConfig cfg = fault_config(core::Approach::kHybrid, spec);
  cfg.ior.iterations = 12;
  ExperimentResult res = Experiment(std::move(cfg)).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GE(res.recovery.faults_injected, 1u);
  ASSERT_GE(res.recovery.migrations_recovered, 1u);
  EXPECT_GT(res.recovery.recovery_p50_s, 0.0);
  EXPECT_LE(res.recovery.recovery_p50_s, res.recovery.recovery_p99_s);
  EXPECT_LE(res.recovery.recovery_p99_s, res.recovery.recovery_p999_s);
  EXPECT_LE(res.recovery.recovery_p999_s, res.recovery.max_time_to_recover_s);
  EXPECT_LE(res.recovery.downtime_p50_s, res.recovery.downtime_p99_s);
  EXPECT_LE(res.recovery.downtime_p99_s, res.recovery.downtime_p999_s);
}

/// An unbounded churn process (no `until`) keeps generating events forever;
/// the experiment must still terminate the moment its own work is done (the
/// run loop exits on completion, not on timer-queue exhaustion).
TEST(ChurnExperiment, UnboundedChurnStillTerminates) {
  const char* spec = "churn:crash-mtbf=2,crash-mttr=1,from=1";
  ExperimentConfig cfg = fault_config(core::Approach::kHybrid, spec);
  cfg.ior.iterations = 12;
  ExperimentResult res = Experiment(std::move(cfg)).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GE(res.recovery.faults_injected, 1u);
  EXPECT_LT(res.sim_duration, 600.0);  // finished well before max_sim_time
}

}  // namespace
}  // namespace hm::cloud
