// Steady-state soak: the continuous-arrival scheduler operated for two
// virtual hours at sustained utilization while a churn fault process crashes
// and degrades nodes underneath it, with the invariant auditor armed the
// whole time. Asserts liveness (every request reaches a terminal state and
// the run drains), conservation (zero audit violations), sane percentile
// shapes (p50 <= p99 <= p999 for queueing delay, downtime and recovery
// time), and the determinism contract — the soak timeline is bit-identical
// across reruns and across the incremental/full-solve regimes.
#include <gtest/gtest.h>

#include <string>

#include "cloud/experiment.h"
#include "integration/result_compare.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

/// Small-footprint fleet (64 MiB images) so two virtual hours of request
/// churn stay a seconds-scale run; the scheduler and fault machinery see the
/// same code paths as the full-size sweeps. The guests run a slowed-down
/// AsyncWR stream the whole window: the linear writes keep the hybrid push
/// set non-empty (migrations do real storage work, so admission slots stay
/// occupied long enough to queue and preempt) and the 12 MB/s memory
/// dirtying keeps the pre-copy rounds honest. Offsets are sized to stay
/// inside the 64 MiB image: 8 MiB base + 3600 x 8 KiB tops out at 36 MiB.
ExperimentConfig soak_config(int incremental) {
  ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.num_nodes = 14;  // 8 sources + 4 destinations + spare
  cfg.cluster.image = storage::ImageConfig{64 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.cluster.network.incremental = incremental;
  cfg.vm.memory.ram_bytes = 64 * kMiB;
  cfg.vm.memory.page_bytes = 256 * storage::kKiB;
  cfg.vm.memory.base_used_bytes = 16 * kMiB;
  cfg.vm.cache.capacity_bytes = 32 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 16 * kMiB;
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 3600;
  cfg.asyncwr.iter_compute_s = 2.0;     // 3600 x 2 s spans the arrival window
  cfg.asyncwr.bytes_per_iter = 8 * storage::kKiB;
  cfg.asyncwr.file_offset = 8 * kMiB;   // writes stay inside the 64 MiB image
  cfg.num_vms = 8;
  cfg.num_destinations = 4;
  cfg.num_migrations = 0;  // the scheduler owns the schedule
  cfg.max_sim_time = 10800.0;
  cfg.seed = 1234;
  cfg.audit = true;
  std::string err;
  // ~0.25 req/s against 2 admission slots keeps the queue hot for the whole
  // window without ever diverging; a quarter of the stream preempts.
  EXPECT_TRUE(parse_scheduler_spec(
      "poisson:rate=0.25,until=7200,hi=0.25"
      ";sched:concurrent=2,policy=least-loaded,preempt=1",
      &cfg.scheduler, &err))
      << err;
  // Per-node crash/degrade churn across the whole cluster: with 14 node
  // processes at these MTBFs a fault lands every minute or so for two hours.
  EXPECT_TRUE(sim::parse_fault_spec(
      "faults:churn:crash-mtbf=900,crash-mttr=8,degrade-mtbf=600,"
      "degrade-mttr=10,factor=0.5,from=60,until=7000",
      &cfg.faults, &err))
      << err;
  return cfg;
}

void expect_monotone(double p50, double p99, double p999, const char* what) {
  EXPECT_LE(p50, p99) << what;
  EXPECT_LE(p99, p999) << what;
}

TEST(SteadyStateSoak, TwoVirtualHoursOfChurnWithAuditorArmed) {
  ExperimentResult res = Experiment(soak_config(/*incremental=*/1)).run();
  ASSERT_TRUE(res.completed) << res.error;
  EXPECT_TRUE(res.error.empty()) << res.error;

  // Liveness: the stream was long, everything drained, nothing starved.
  const SchedulerStats& s = res.scheduler;
  EXPECT_GT(s.requests, 800u);
  EXPECT_EQ(s.completed + s.abandoned + s.rejected, s.requests);
  EXPECT_EQ(s.dispatched, s.completed + s.abandoned);
  EXPECT_EQ(s.rejected, 0u);  // unconstrained placement never rejects
  EXPECT_GT(s.completed, s.requests / 2);
  EXPECT_GE(s.peak_queue_depth, 1u);  // the utilization target actually queued
  EXPECT_LE(s.peak_running, 2u);      // admission bound held for two hours
  EXPECT_EQ(res.migrations.size(), s.dispatched);

  // The churn process really bit, and the salvage path really ran.
  EXPECT_GT(res.recovery.faults_injected, 20u);
  EXPECT_GT(res.recovery.total_retries, 0);
  EXPECT_GT(s.preemptions, 0u);

  // Every attempt gave its per-chunk transfer state back when it ended:
  // completed attempts after their audit, aborted ones after the salvage.
  EXPECT_EQ(res.sessions_retaining_state, 0u);

  // Conservation/liveness auditor: armed the whole run, zero violations.
  EXPECT_GT(res.audit_checks, 100u);
  EXPECT_TRUE(res.audit_violations.empty())
      << res.audit_violations.size() << " violations, first: "
      << res.audit_violations.front();

  // Percentile contracts.
  expect_monotone(s.queueing_p50_s, s.queueing_p99_s, s.queueing_p999_s, "queueing");
  EXPECT_LE(s.queueing_p999_s, s.max_queueing_delay_s);
  expect_monotone(res.recovery.downtime_p50_s, res.recovery.downtime_p99_s,
                  res.recovery.downtime_p999_s, "downtime");
  expect_monotone(res.recovery.recovery_p50_s, res.recovery.recovery_p99_s,
                  res.recovery.recovery_p999_s, "recovery");
}

TEST(SteadyStateSoak, TimelineIsBitIdenticalAcrossRerunsAndSolverRegimes) {
  ExperimentResult a = Experiment(soak_config(/*incremental=*/1)).run();
  ExperimentResult b = Experiment(soak_config(/*incremental=*/1)).run();
  ExperimentResult c = Experiment(soak_config(/*incremental=*/0)).run();
  ASSERT_TRUE(a.completed) << a.error;
  ASSERT_TRUE(b.completed) << b.error;
  ASSERT_TRUE(c.completed) << c.error;
  expect_virtual_fields_equal(a, b);  // rerun
  expect_virtual_fields_equal(a, c);  // incremental vs full-solve
}

}  // namespace
}  // namespace hm::cloud
