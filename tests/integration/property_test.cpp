// Cross-approach invariants checked on the full pipeline (parameterized
// property sweeps over approaches, seeds and chunk sizes), plus the
// determinism regression guarding the epoch-batched solver and slab event
// core: identical seeded runs must produce byte-identical virtual-time
// results.
#include <gtest/gtest.h>

#include "cloud/experiment.h"
#include "core/hybrid_migrator.h"
#include "core/session_fixture.h"
#include "integration/result_compare.h"

namespace hm::cloud {
namespace {

using storage::kMiB;

ExperimentConfig tiny_config(core::Approach a, std::uint32_t chunk_kib = 1024,
                             std::uint64_t seed = 42) {
  ExperimentConfig cfg;
  cfg.approach = a;
  cfg.seed = seed;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.image =
      storage::ImageConfig{256 * kMiB, chunk_kib * static_cast<std::uint32_t>(1024)};
  cfg.cluster.disk = storage::DiskConfig{55e6, 0.0};
  cfg.vm.memory.ram_bytes = 256 * kMiB;
  cfg.vm.memory.page_bytes = kMiB;
  cfg.vm.memory.base_used_bytes = 32 * kMiB;
  cfg.vm.cache.capacity_bytes = 64 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 32 * kMiB;
  cfg.vm.cache.write_Bps = 200e6;
  cfg.workload = WorkloadKind::kIor;
  cfg.ior.iterations = 2;
  cfg.ior.file_bytes = 48 * kMiB;
  cfg.ior.block_bytes = kMiB;
  cfg.ior.file_offset = 64 * kMiB;
  cfg.first_migration_at = 1.0;
  cfg.max_sim_time = 600.0;
  return cfg;
}

class AllApproaches : public ::testing::TestWithParam<core::Approach> {};

TEST_P(AllApproaches, MigrationAlwaysConvergesForFiniteWorkload) {
  ExperimentResult res = Experiment(tiny_config(GetParam())).run();
  EXPECT_TRUE(res.completed) << res.approach;
  ASSERT_EQ(res.migrations.size(), 1u);
  const auto& m = res.migrations[0];
  EXPECT_GT(m.t_control_transfer, m.t_request);
  EXPECT_GE(m.t_source_released, m.t_control_transfer);
}

TEST_P(AllApproaches, DowntimeIsSmallFractionOfMigrationTime) {
  ExperimentResult res = Experiment(tiny_config(GetParam())).run();
  ASSERT_EQ(res.migrations.size(), 1u);
  const auto& m = res.migrations[0];
  // "Live": the VM is paused for well under 10% of the migration.
  EXPECT_LT(m.downtime_s, 0.1 * m.migration_time()) << res.approach;
}

TEST_P(AllApproaches, WorkloadCompletesDespiteMigration) {
  ExperimentConfig cfg = tiny_config(GetParam());
  ExperimentResult with = Experiment(cfg).run();
  ExperimentResult without = run_baseline(cfg);
  EXPECT_TRUE(with.completed);
  EXPECT_DOUBLE_EQ(with.bytes_written, without.bytes_written);
  EXPECT_DOUBLE_EQ(with.bytes_read, without.bytes_read);
}

TEST_P(AllApproaches, MigrationNeverSpeedsUpTheWorkload) {
  ExperimentConfig cfg = tiny_config(GetParam());
  ExperimentResult with = Experiment(cfg).run();
  ExperimentResult without = run_baseline(cfg);
  EXPECT_GE(with.app_execution_time, without.app_execution_time - 1e-6) << with.approach;
}

TEST_P(AllApproaches, MemoryTrafficAtLeastUsedMemory) {
  ExperimentResult res = Experiment(tiny_config(GetParam())).run();
  // Round 0 ships all used pages (>= the 32 MiB baseline).
  EXPECT_GE(res.traffic(net::TrafficClass::kMemory), 32.0 * kMiB);
}

INSTANTIATE_TEST_SUITE_P(
    Approaches, AllApproaches,
    ::testing::Values(core::Approach::kHybrid, core::Approach::kMirror,
                      core::Approach::kPostcopy, core::Approach::kPrecopy,
                      core::Approach::kPvfsShared),
    [](const ::testing::TestParamInfo<core::Approach>& info) {
      std::string n = core::approach_name(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

// --- Determinism regression --------------------------------------------------
// EXPECT_EQ on doubles is exact: any reordering or FP drift introduced by the
// engine (event pool, epoch batching, lazy completion heap) shows up here.

void expect_byte_identical(const ExperimentResult& a, const ExperimentResult& b) {
  expect_virtual_fields_equal(a, b);
  // Engine work is part of the contract too: the same run must execute the
  // same number of events and solver passes (flows are a virtual field).
  EXPECT_EQ(a.engine_events, b.engine_events);
  EXPECT_EQ(a.engine_recomputes, b.engine_recomputes);
}

class DeterminismSweep : public ::testing::TestWithParam<core::Approach> {};

TEST_P(DeterminismSweep, RepeatedSeededRunIsByteIdentical) {
  const ExperimentConfig cfg = tiny_config(GetParam());
  expect_byte_identical(Experiment(cfg).run(), Experiment(cfg).run());
}

INSTANTIATE_TEST_SUITE_P(
    Approaches, DeterminismSweep,
    ::testing::Values(core::Approach::kHybrid, core::Approach::kMirror,
                      core::Approach::kPostcopy, core::Approach::kPrecopy,
                      core::Approach::kPvfsShared),
    [](const ::testing::TestParamInfo<core::Approach>& info) {
      std::string n = core::approach_name(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(Determinism, SimultaneousMigrationsAreByteIdentical) {
  // Three migrations launched in the same virtual instant maximize
  // same-epoch batching — the case most sensitive to ordering bugs.
  ExperimentConfig cfg = tiny_config(core::Approach::kHybrid);
  cfg.num_vms = 3;
  cfg.num_migrations = 3;
  cfg.num_destinations = 3;
  cfg.migration_interval_s = 0.0;
  cfg.cluster.num_nodes = 12;
  expect_byte_identical(Experiment(cfg).run(), Experiment(cfg).run());
}

namespace {

/// Drive one full hybrid session (passive-phase pulls only) and return its
/// pull completion log.
std::vector<storage::ChunkId> run_pull_scenario() {
  core::testing::SessionFixture f;
  f.populate(16);
  for (storage::ChunkId c : {3u, 7u, 7u, 11u}) f.write_chunk_now(c);
  core::HybridConfig cfg;
  cfg.push_enabled = false;  // keep every chunk for the prioritized prefetch
  core::HybridSession session(f.s, f.cluster, &f.mgr, /*dst=*/1, *f.rec, cfg);
  f.mgr.begin_migration(&session);
  session.start();
  f.sync_and_transfer(session);
  f.wait_release(session);
  return session.pull_log();
}

}  // namespace

TEST(Determinism, HybridPullLogIsIdenticalAcrossRuns) {
  const auto log1 = run_pull_scenario();
  const auto log2 = run_pull_scenario();
  ASSERT_EQ(log1.size(), 16u);
  EXPECT_EQ(log1, log2);
}

class ChunkSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChunkSizeSweep, HybridConvergesForAllChunkSizes) {
  ExperimentResult res =
      Experiment(tiny_config(core::Approach::kHybrid, GetParam())).run();
  EXPECT_TRUE(res.completed);
  ASSERT_EQ(res.migrations.size(), 1u);
  EXPECT_GT(res.migrations[0].migration_time(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ChunkKiB, ChunkSizeSweep,
                         ::testing::Values(128u, 256u, 512u, 1024u, 2048u));

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, InvariantsHoldAcrossSeeds) {
  ExperimentResult res =
      Experiment(tiny_config(core::Approach::kHybrid, 1024, GetParam())).run();
  EXPECT_TRUE(res.completed);
  const auto& m = res.migrations[0];
  EXPECT_GE(m.t_source_released, m.t_control_transfer);
  EXPECT_GT(res.traffic(net::TrafficClass::kMemory), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace hm::cloud
