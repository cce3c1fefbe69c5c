// Epoch-coupled sharding contract: with finite shared network constraints
// (fabric aggregate, switch uplinks) the plan no longer collapses — the
// slices run in conservative lockstep over global event instants while the
// coordinator's mirror solver arbitrates the shared constraints
// (net/coupled_solver.h). The contract is the same byte-identity the
// independent path carries, but STRONGER on the solver counters: the mirror
// replays the single-shard solver literally, so settle-epoch counts,
// component water-fills, flow re-solves and escalations are all exact in
// BOTH solver regimes (the independent path can only promise that for the
// incremental one). The TSan CI job runs this suite to prove the threaded
// barrier driver's publication discipline.
#include <gtest/gtest.h>

#include <string>

#include "cloud/experiment.h"
#include "cloud/shard_plan.h"
#include "net/flow_network.h"

namespace hm::cloud {
namespace {

using storage::kKiB;
using storage::kMiB;

/// The shard_determinism_test fleet (8 AsyncWR VMs, one destination each —
/// 8 singleton components), but over a finite 300 MB/s fabric aggregate:
/// every migration contends with every other through one shared constraint,
/// the epoch-coupled worst case.
ExperimentConfig finite_fabric_config(int incremental) {
  ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.image = storage::ImageConfig{64 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.cluster.network.incremental = incremental;
  cfg.cluster.network.fabric_Bps = 300e6;
  cfg.vm.memory.ram_bytes = 64 * kMiB;
  cfg.vm.memory.page_bytes = 256 * kKiB;
  cfg.vm.memory.base_used_bytes = 16 * kMiB;
  cfg.vm.cache.capacity_bytes = 32 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 16 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 20;
  cfg.asyncwr.file_offset = 32 * kMiB;
  cfg.num_vms = 8;
  cfg.num_migrations = 8;
  cfg.num_destinations = 8;
  cfg.first_migration_at = 1.5;
  cfg.migration_interval_s = 0.5;
  cfg.max_sim_time = 600.0;
  return cfg;
}

/// Same fleet under finite switch uplinks instead: 4 nodes per edge switch
/// on 200 MB/s up/down links, unlimited fabric. Shards tear the rack
/// boundary, so the uplink constraints span shards without the fabric ever
/// binding.
ExperimentConfig finite_uplink_config(int incremental) {
  ExperimentConfig cfg = finite_fabric_config(incremental);
  cfg.cluster.network.fabric_Bps = net::kUnlimitedRate;
  cfg.cluster.nodes_per_switch = 4;
  cfg.cluster.switch_uplink_Bps = 200e6;
  return cfg;
}

/// Exact comparison on every simulated field INCLUDING the solver-work
/// counters and settle-epoch count: the mirror replays the single-shard
/// solver, so nothing short of byte identity is acceptable — in either
/// solver regime, for any shard count.
void expect_identical(const ExperimentResult& ref, const ExperimentResult& got) {
  EXPECT_EQ(ref.completed, got.completed);
  EXPECT_EQ(ref.error, got.error);
  EXPECT_EQ(ref.sim_duration, got.sim_duration);
  EXPECT_EQ(ref.app_execution_time, got.app_execution_time);

  ASSERT_EQ(ref.migrations.size(), got.migrations.size());
  for (std::size_t i = 0; i < ref.migrations.size(); ++i) {
    const core::MigrationRecord& a = ref.migrations[i];
    const core::MigrationRecord& b = got.migrations[i];
    EXPECT_EQ(a.vm_id, b.vm_id) << "migration " << i;
    EXPECT_EQ(a.t_request, b.t_request) << "migration " << i;
    EXPECT_EQ(a.t_control_transfer, b.t_control_transfer) << "migration " << i;
    EXPECT_EQ(a.t_source_released, b.t_source_released) << "migration " << i;
    EXPECT_EQ(a.downtime_s, b.downtime_s) << "migration " << i;
    EXPECT_EQ(a.memory_rounds, b.memory_rounds) << "migration " << i;
    EXPECT_EQ(a.memory_bytes_sent, b.memory_bytes_sent) << "migration " << i;
    EXPECT_EQ(a.storage_chunks_pushed, b.storage_chunks_pushed) << "migration " << i;
    EXPECT_EQ(a.storage_chunks_pulled, b.storage_chunks_pulled) << "migration " << i;
  }
  EXPECT_EQ(ref.total_migration_time, got.total_migration_time);
  EXPECT_EQ(ref.avg_migration_time, got.avg_migration_time);
  EXPECT_EQ(ref.max_downtime, got.max_downtime);

  for (std::size_t c = 0; c < net::kNumTrafficClasses; ++c)
    EXPECT_EQ(ref.traffic_bytes[c], got.traffic_bytes[c])
        << net::traffic_class_name(static_cast<net::TrafficClass>(c));
  EXPECT_EQ(ref.total_traffic, got.total_traffic);
  EXPECT_EQ(ref.migration_traffic, got.migration_traffic);

  EXPECT_EQ(ref.bytes_written, got.bytes_written);
  EXPECT_EQ(ref.bytes_read, got.bytes_read);
  EXPECT_EQ(ref.write_Bps, got.write_Bps);
  EXPECT_EQ(ref.read_Bps, got.read_Bps);
  EXPECT_EQ(ref.cpu_seconds_total, got.cpu_seconds_total);

  EXPECT_EQ(ref.engine_flows, got.engine_flows);
  EXPECT_EQ(ref.engine_recomputes, got.engine_recomputes);
  EXPECT_EQ(ref.engine_components, got.engine_components);
  EXPECT_EQ(ref.engine_flows_resolved, got.engine_flows_resolved);
  EXPECT_EQ(ref.engine_escalations, got.engine_escalations);
}

ExperimentResult run_with_shards(ExperimentConfig cfg, std::uint32_t shards) {
  cfg.shards = shards;
  return Experiment(std::move(cfg)).run();
}

TEST(EpochCoupledPlanning, FiniteConstraintsPlanCoupledNotCollapsed) {
  for (auto make : {finite_fabric_config, finite_uplink_config}) {
    ExperimentConfig cfg = make(1);
    cfg.shards = 4;
    cfg.normalize();
    const ShardPlan plan = plan_shards(cfg);
    EXPECT_EQ(plan.kind, PlanKind::kEpochCoupled);
    EXPECT_EQ(plan.shard_count(), 4u);
    EXPECT_FALSE(plan.coupled_reason.empty());
  }
}

TEST(EpochCoupledDeterminism, FiniteFabricByteIdenticalAcrossShardCounts) {
  for (int incremental : {1, 0}) {
    SCOPED_TRACE(incremental ? "incremental" : "fullsolve");
    const ExperimentResult ref = run_with_shards(finite_fabric_config(incremental), 1);
    ASSERT_TRUE(ref.completed);
    ASSERT_TRUE(ref.error.empty()) << ref.error;
    ASSERT_EQ(ref.migrations.size(), 8u);
    EXPECT_GT(ref.max_downtime, 0.0);  // the comparison must not be vacuous
    EXPECT_EQ(ref.shards_used, 1u);

    for (std::uint32_t n : {2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(n));
      const ExperimentResult got = run_with_shards(finite_fabric_config(incremental), n);
      EXPECT_EQ(got.shards_used, n);  // coupled, NOT collapsed
      EXPECT_TRUE(got.shard_fallback_reason.empty()) << got.shard_fallback_reason;
      expect_identical(ref, got);
    }
  }
}

TEST(EpochCoupledDeterminism, SimultaneousBurstTornConstraint) {
  // interval = 0 launches every migration at one instant: all eight streams
  // tear into the one fabric constraint at once, every round carries adds
  // or removals from several shards, and the coordinator's completion-timer
  // emulation faces maximal same-timestamp churn.
  ExperimentConfig cfg = finite_fabric_config(1);
  cfg.migration_interval_s = 0.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_TRUE(ref.completed);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 4u);
  expect_identical(ref, got);
}

TEST(EpochCoupledDeterminism, FiniteUplinksByteIdentical) {
  for (std::uint32_t n : {2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(n));
    const ExperimentResult ref = run_with_shards(finite_uplink_config(1), 1);
    ASSERT_TRUE(ref.completed);
    const ExperimentResult got = run_with_shards(finite_uplink_config(1), n);
    EXPECT_EQ(got.shards_used, n);
    expect_identical(ref, got);
  }
}

TEST(EpochCoupledFallback, TruncationRerunsSingleShard) {
  // max_sim_time cuts the run mid-flight; the runtime guard must detect the
  // incomplete slice, rerun single-shard, and say so in the telemetry.
  ExperimentConfig cfg = finite_fabric_config(1);
  cfg.max_sim_time = 3.0;
  const ExperimentResult ref = run_with_shards(cfg, 1);
  ASSERT_FALSE(ref.completed);
  const ExperimentResult got = run_with_shards(cfg, 4);
  EXPECT_EQ(got.shards_used, 1u);
  EXPECT_EQ(got.shard_fallback_reason, "runtime guard: max_sim_time truncation");
  EXPECT_FALSE(got.completed);
  expect_identical(ref, got);
}

}  // namespace
}  // namespace hm::cloud
