#include "cloud/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "integration/result_compare.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

/// Scaled-down scenario so integration tests stay fast: 512 MiB image,
/// small RAM, short IOR. Same mechanisms, smaller numbers.
ExperimentConfig small_config(core::Approach a) {
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
  return cfg;
}

TEST(Experiment, NormalizeGrowsClusterForDestinations) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.cluster.num_nodes = 2;
  cfg.num_vms = 4;
  cfg.num_destinations = 3;
  cfg.normalize();
  EXPECT_GE(cfg.cluster.num_nodes, 7u);
}

TEST(Experiment, NormalizeEnablesPvfsForSharedApproach) {
  ExperimentConfig cfg = small_config(core::Approach::kPvfsShared);
  cfg.normalize();
  EXPECT_TRUE(cfg.cluster.enable_pvfs);
}

TEST(Experiment, NormalizeCm1OverridesVmCount) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kCm1;
  cfg.cm1.grid_x = 2;
  cfg.cm1.grid_y = 3;
  cfg.normalize();
  EXPECT_EQ(cfg.num_vms, 6u);
}

TEST(Experiment, RunsToCompletionWithMigration) {
  Experiment exp(small_config(core::Approach::kHybrid));
  ExperimentResult res = exp.run();
  EXPECT_TRUE(res.completed);
  ASSERT_EQ(res.migrations.size(), 1u);
  EXPECT_GT(res.migrations[0].migration_time(), 0.0);
  EXPECT_GT(res.total_traffic, 0.0);
  EXPECT_GT(res.bytes_written, 0.0);
}

TEST(Experiment, BaselineRunHasNoMigrations) {
  ExperimentResult res = run_baseline(small_config(core::Approach::kHybrid));
  EXPECT_TRUE(res.completed);
  EXPECT_TRUE(res.migrations.empty());
  EXPECT_DOUBLE_EQ(res.traffic(net::TrafficClass::kMemory), 0.0);
  EXPECT_DOUBLE_EQ(res.traffic(net::TrafficClass::kStoragePush), 0.0);
}

TEST(Experiment, DeterministicAcrossRuns) {
  ExperimentResult a = Experiment(small_config(core::Approach::kHybrid)).run();
  ExperimentResult b = Experiment(small_config(core::Approach::kHybrid)).run();
  expect_virtual_fields_equal(a, b);
}

TEST(Experiment, EveryApproachCompletesTheScenario) {
  for (core::Approach a :
       {core::Approach::kHybrid, core::Approach::kMirror, core::Approach::kPostcopy,
        core::Approach::kPrecopy, core::Approach::kPvfsShared}) {
    Experiment exp(small_config(a));
    ExperimentResult res = exp.run();
    EXPECT_TRUE(res.completed) << core::approach_name(a);
    ASSERT_EQ(res.migrations.size(), 1u) << core::approach_name(a);
    EXPECT_GT(res.migrations[0].t_control_transfer, 0.0) << core::approach_name(a);
  }
}

TEST(Experiment, MultipleSimultaneousMigrations) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 120;
  cfg.asyncwr.file_offset = 128 * kMiB;
  cfg.num_vms = 4;
  cfg.num_migrations = 4;
  cfg.num_destinations = 2;
  cfg.first_migration_at = 3.0;
  ExperimentResult res = Experiment(cfg).run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.migrations.size(), 4u);
  for (const auto& m : res.migrations) EXPECT_GT(m.t_source_released, 0.0);
}

TEST(Experiment, SaturatedFabricProvesEscalations) {
  // Four simultaneous migrations on disjoint node pairs through a fabric
  // below two NICs' worth: once the whole fleet is dirty, the bottleneck
  // bounds prove the overrun (FlowNetwork invariant step 3) and the merge
  // carries the count into the result.
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 60;
  cfg.asyncwr.file_offset = 128 * kMiB;
  cfg.num_vms = 4;
  cfg.num_migrations = 4;
  cfg.num_destinations = 4;
  cfg.migration_interval_s = 0.0;
  cfg.cluster.network.fabric_Bps = 200e6;
  const ExperimentResult res = Experiment(cfg).run();
  EXPECT_TRUE(res.completed) << res.error;
  EXPECT_GT(res.engine_proven_escalations, 0u);
  EXPECT_LE(res.engine_proven_escalations, res.engine_escalations);
  EXPECT_LE(res.engine_validation_walks + res.engine_certified_epochs +
                res.engine_proven_escalations,
            res.engine_recomputes);
}

TEST(Experiment, SuccessiveMigrationsAreSpaced) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 200;
  cfg.asyncwr.file_offset = 128 * kMiB;
  cfg.num_vms = 3;
  cfg.num_migrations = 3;
  cfg.num_destinations = 3;
  cfg.first_migration_at = 2.0;
  cfg.migration_interval_s = 5.0;
  ExperimentResult res = Experiment(cfg).run();
  ASSERT_EQ(res.migrations.size(), 3u);
  EXPECT_NEAR(res.migrations[0].t_request, 2.0, 1e-6);
  EXPECT_NEAR(res.migrations[1].t_request, 7.0, 1e-6);
  EXPECT_NEAR(res.migrations[2].t_request, 12.0, 1e-6);
}

TEST(Experiment, GuardTripsOnImpossibleDeadline) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.max_sim_time = 1.0;  // IOR cannot finish in 1 simulated second
  ExperimentResult res = Experiment(cfg).run();
  EXPECT_FALSE(res.completed);
}

// A workload whose file extent runs past the image end is rejected before
// anything is built; the same extent ending exactly at the image end runs.
void expect_rejected(const ExperimentConfig& cfg) {
  const ExperimentResult res = Experiment(cfg).run();
  EXPECT_FALSE(res.completed);
  EXPECT_NE(res.error.find("past the 536870912-byte image"), std::string::npos) << res.error;
  EXPECT_EQ(res.engine_events, 0u);
}

TEST(ExperimentValidate, IorFilePastImageEnd) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);  // 96 MiB file
  cfg.ior.file_offset = 417 * kMiB;
  expect_rejected(cfg);
  cfg.ior.file_offset = 416 * kMiB;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(ExperimentValidate, AsyncWrIterationsPastImageEnd) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kAsyncWr;
  cfg.asyncwr.file_offset = 128 * kMiB;  // 1 MiB per iteration
  cfg.asyncwr.iterations = 385;
  expect_rejected(cfg);
  cfg.asyncwr.iterations = 384;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(ExperimentValidate, Cm1DumpSlotsPastImageEnd) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kCm1;
  cfg.cm1.file_offset = 128 * kMiB;
  cfg.cm1.output_bytes = 128 * kMiB;
  cfg.cm1.dump_slots = 4;  // 10 outputs rotate over 4 slots
  expect_rejected(cfg);
  cfg.cm1.dump_slots = 3;
  EXPECT_EQ(cfg.validate(), "");
  cfg.cm1.dump_slots = 0;  // every output keeps its own slot
  expect_rejected(cfg);
  cfg.cm1.num_outputs = 3;
  EXPECT_EQ(cfg.validate(), "");
}

// A negative or non-finite launch time or interval is rejected before
// anything is built, instead of clamping every launch to t = 0.
TEST(ExperimentValidate, LaunchScheduleIsFiniteAndNonNegative) {
  for (const double bad : {-5.0, std::numeric_limits<double>::infinity(), std::nan("")}) {
    ExperimentConfig cfg = small_config(core::Approach::kHybrid);
    cfg.first_migration_at = bad;
    ExperimentResult res = Experiment(cfg).run();
    EXPECT_FALSE(res.completed) << bad;
    EXPECT_EQ(res.error.rfind("first_migration_at must be a finite number >= 0", 0), 0u)
        << res.error;
    EXPECT_EQ(res.engine_events, 0u);
    cfg = small_config(core::Approach::kHybrid);
    cfg.migration_interval_s = bad;
    res = Experiment(cfg).run();
    EXPECT_FALSE(res.completed) << bad;
    EXPECT_EQ(res.error.rfind("migration_interval_s must be a finite number >= 0", 0), 0u)
        << res.error;
  }
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.first_migration_at = 0;
  cfg.migration_interval_s = 0;
  EXPECT_EQ(cfg.validate(), "");
}

// A zero chunk or page size would divide by zero while building the
// cluster; it is rejected before anything is built instead.
TEST(ExperimentValidate, ZeroChunkBytes) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.cluster.image.chunk_bytes = 0;
  const ExperimentResult res = Experiment(cfg).run();
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.error, "cluster.image.chunk_bytes must be positive");
  EXPECT_EQ(res.engine_events, 0u);
}

TEST(ExperimentValidate, ZeroPageBytes) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.vm.memory.page_bytes = 0;
  const ExperimentResult res = Experiment(cfg).run();
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.error, "vm.memory.page_bytes must be positive");
  EXPECT_EQ(res.engine_events, 0u);
}

TEST(Experiment, MigrationTrafficExcludesAppComm) {
  ExperimentConfig cfg = small_config(core::Approach::kHybrid);
  cfg.workload = WorkloadKind::kCm1;
  cfg.cm1.grid_x = 2;
  cfg.cm1.grid_y = 2;
  cfg.cm1.step_compute_s = 0.25;
  cfg.cm1.steps_per_output = 2;
  cfg.cm1.num_outputs = 2;
  cfg.cm1.output_bytes = 16 * kMiB;
  cfg.cm1.file_offset = 128 * kMiB;
  cfg.cm1.ws_bytes = 32 * kMiB;
  cfg.first_migration_at = 0.5;
  ExperimentResult res = Experiment(cfg).run();
  EXPECT_TRUE(res.completed);
  EXPECT_GT(res.traffic(net::TrafficClass::kAppComm), 0.0);
  EXPECT_DOUBLE_EQ(res.migration_traffic,
                   res.total_traffic - res.traffic(net::TrafficClass::kAppComm));
}

}  // namespace
}  // namespace hm::cloud
