#include "vm/vm_instance.h"

#include <gtest/gtest.h>

#include "core/migration_manager.h"
#include "sim/simulator.h"

namespace hm::vm {
namespace {

using storage::kGiB;
using storage::kMiB;

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.nic_Bps = 100e6;
  cfg.image = storage::ImageConfig{256 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.disk = storage::DiskConfig{55e6, 0.0};
  return cfg;
}

VmConfig small_vm() {
  VmConfig cfg;
  cfg.memory.ram_bytes = 256 * kMiB;
  cfg.memory.page_bytes = kMiB;
  cfg.memory.base_used_bytes = 32 * kMiB;
  cfg.cache.capacity_bytes = 64 * kMiB;
  cfg.cache.dirty_limit_bytes = 16 * kMiB;
  cfg.cache.write_Bps = 100e6;
  cfg.cache.read_Bps = 1e9;
  cfg.compute_slice_s = 0.1;
  return cfg;
}

struct VmFixture {
  sim::Simulator s;
  Cluster cluster;
  core::MigrationManager mgr;
  VmInstance vm;
  VmFixture()
      : cluster(s, small_cluster()),
        mgr(s, cluster, /*home=*/0, /*vm_id=*/0),
        vm(s, cluster, 0, 0, mgr, small_vm()) {}
};

TEST(VmInstance, FileWriteReachesLocalReplica) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_write(0, 4 * kMiB);
    co_await v->fsync();
  }(&f.vm));
  f.s.run();
  EXPECT_EQ(f.mgr.replica().modified_count(), 4u);
  EXPECT_DOUBLE_EQ(f.vm.io_stats().bytes_written, 4.0 * kMiB);
}

TEST(VmInstance, ReadOfUntouchedChunkFetchesFromRepository) {
  VmFixture f;
  // Chunk 9 lives on storage node 9 % 4 = 1, a remote node (the VM is on
  // node 0), so the fetch is visible as repo-read network traffic.
  f.s.spawn([](VmInstance* v) -> sim::Task { co_await v->file_read(9 * kMiB, kMiB); }(
      &f.vm));
  f.s.run();
  EXPECT_EQ(f.mgr.repo_fetches(), 1u);
  EXPECT_TRUE(f.mgr.replica().present(9));
  EXPECT_FALSE(f.mgr.replica().modified(9));  // base content, not a local change
  EXPECT_GT(f.cluster.network().traffic_bytes(net::TrafficClass::kRepoRead), 0.0);
}

TEST(VmInstance, RereadServedLocally) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_read(8 * kMiB, kMiB);
    co_await v->file_read(8 * kMiB, kMiB);
  }(&f.vm));
  f.s.run();
  EXPECT_EQ(f.mgr.repo_fetches(), 1u);  // second read: guest cache hit
}

TEST(VmInstance, ComputeAccruesCpuSeconds) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task { co_await v->compute(2.5); }(&f.vm));
  f.s.run();
  EXPECT_NEAR(f.vm.cpu_seconds(), 2.5, 1e-9);
  EXPECT_NEAR(f.s.now(), 2.5, 1e-9);
}

TEST(VmInstance, ComputeDirtiesMemoryAtRate) {
  VmFixture f;
  const auto dirty_before = f.vm.memory().dirty_bytes();
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->compute(1.0, /*dirty_Bps=*/16.0 * kMiB, /*ws_bytes=*/64 * kMiB);
  }(&f.vm));
  f.s.run();
  const auto dirtied = f.vm.memory().dirty_bytes() - dirty_before;
  EXPECT_GT(dirtied, 8 * kMiB);   // most of the 16 MiB (collisions possible)
  EXPECT_LE(dirtied, 16 * kMiB);
}

TEST(VmInstance, PauseStallsComputeUntilResume) {
  VmFixture f;
  f.vm.pause();
  double done_at = -1;
  f.s.spawn([](VmInstance* v, double* d, sim::Simulator* s) -> sim::Task {
    co_await v->compute(1.0);
    *d = s->now();
  }(&f.vm, &done_at, &f.s));
  f.s.schedule(5.0, [&] { f.vm.resume(); });
  f.s.run();
  EXPECT_NEAR(done_at, 6.0, 1e-9);
  EXPECT_NEAR(f.vm.cpu_seconds(), 1.0, 1e-9);
}

TEST(VmInstance, PauseStallsNewFileOps) {
  VmFixture f;
  f.vm.pause();
  double done_at = -1;
  f.s.spawn([](VmInstance* v, double* d, sim::Simulator* s) -> sim::Task {
    co_await v->file_write(0, kMiB);
    *d = s->now();
  }(&f.vm, &done_at, &f.s));
  f.s.schedule(2.0, [&] { f.vm.resume(); });
  f.s.run();
  EXPECT_GE(done_at, 2.0);
}

TEST(VmInstance, CacheWritesDirtyGuestMemory) {
  VmFixture f;
  f.vm.memory().begin_full_round();  // clear the baseline dirtiness
  f.s.spawn([](VmInstance* v) -> sim::Task { co_await v->file_write(0, 8 * kMiB); }(
      &f.vm));
  f.s.run();
  // 8 chunks entered the page cache -> at least 8 MiB of guest pages dirty.
  EXPECT_GE(f.vm.memory().dirty_bytes(), 8 * kMiB);
}

TEST(VmInstance, IoStatsTrackWallTime) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task { co_await v->file_write(0, 10 * kMiB); }(
      &f.vm));
  f.s.run();
  const auto& io = f.vm.io_stats();
  EXPECT_GT(io.write_time_s, 0.0);
  EXPECT_NEAR(io.write_Bps(), 100e6, 20e6);  // guest-bus limited
}

TEST(VmInstance, NodeFollowsSetNode) {
  VmFixture f;
  EXPECT_EQ(f.vm.node(), 0u);
  f.vm.set_node(2);
  EXPECT_EQ(f.vm.node(), 2u);
}

}  // namespace
}  // namespace hm::vm

namespace hm::vm {
namespace {

TEST(VmInstance, DropFileCacheReleasesGuestMemory) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_write(0, 8 * kMiB);
    co_await v->fsync();
  }(&f.vm));
  f.s.run();
  const auto used_before = f.vm.memory().used_bytes();
  f.vm.drop_file_cache(0, 8 * kMiB);
  EXPECT_LT(f.vm.memory().used_bytes(), used_before);
}

TEST(VmInstance, DroppedRangeMissesOnReread) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_write(0, 2 * kMiB);
    co_await v->fsync();
  }(&f.vm));
  f.s.run();
  f.vm.drop_file_cache(0, 2 * kMiB);
  const auto misses_before = f.vm.page_cache().misses();
  f.s.spawn([](VmInstance* v) -> sim::Task { co_await v->file_read(0, 2 * kMiB); }(&f.vm));
  f.s.run();
  EXPECT_EQ(f.vm.page_cache().misses(), misses_before + 2);
}

// --- file ops past the image end --------------------------------------------
// small_cluster()'s image is 256 MiB of 1 MiB chunks. Each op below covers
// the image's last byte and one byte past it: it must touch no chunk and
// leave a diagnostic naming the VM, the range and the image size.

constexpr std::uint64_t kImageBytes = 256 * kMiB;

TEST(VmInstance, WritePastImageEndTouchesNothingAndReports) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_write(kImageBytes - 1, 2);
    co_await v->file_write(0, kMiB);  // later ops still run
    co_await v->fsync();
  }(&f.vm));
  f.s.run();
  EXPECT_EQ(f.vm.error(),
            "vm 0: file write at offset 268435455 length 2 runs past the image end "
            "(268435456 bytes)");
  EXPECT_EQ(f.mgr.replica().modified_count(), 1u);  // only the in-range write
  EXPECT_DOUBLE_EQ(f.vm.io_stats().bytes_written, 1.0 * kMiB);
}

TEST(VmInstance, ReadPastImageEndTouchesNothingAndReports) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_read(kImageBytes - 1, 2);
    co_await v->file_read(kImageBytes, 1);  // the first diagnostic sticks
  }(&f.vm));
  f.s.run();
  EXPECT_EQ(f.vm.error(),
            "vm 0: file read at offset 268435455 length 2 runs past the image end "
            "(268435456 bytes)");
  EXPECT_EQ(f.mgr.repo_fetches(), 0u);
  EXPECT_EQ(f.vm.page_cache().cached_chunks(), 0u);
  EXPECT_DOUBLE_EQ(f.vm.io_stats().bytes_read, 0.0);
}

TEST(VmInstance, DropPastImageEndTouchesNothingAndReports) {
  VmFixture f;
  f.s.spawn([](VmInstance* v) -> sim::Task {
    co_await v->file_write(kImageBytes - kMiB, kMiB);  // the last chunk, cached
    co_await v->fsync();
  }(&f.vm));
  f.s.run();
  EXPECT_TRUE(f.vm.error().empty());
  const std::size_t cached = f.vm.page_cache().cached_chunks();
  f.vm.drop_file_cache(kImageBytes - 1, 2);
  EXPECT_EQ(f.vm.error(),
            "vm 0: file drop at offset 268435455 length 2 runs past the image end "
            "(268435456 bytes)");
  EXPECT_EQ(f.vm.page_cache().cached_chunks(), cached);  // the last chunk stays
}

TEST(VmInstance, OffsetNearUint64MaxIsRejectedNotWrapped) {
  VmFixture f;
  f.vm.drop_file_cache(UINT64_MAX, 2);  // offset + len wraps to 0
  EXPECT_FALSE(f.vm.error().empty());
}

TEST(VmInstance, ComputeSlowedByNodeLoad) {
  VmFixture f;
  f.cluster.node(0).add_cpu_load(0.5);
  double done_at = -1;
  f.s.spawn([](VmInstance* v, double* d, sim::Simulator* s) -> sim::Task {
    co_await v->compute(1.0);
    *d = s->now();
  }(&f.vm, &done_at, &f.s));
  f.s.run();
  EXPECT_NEAR(done_at, 2.0, 1e-6);
  EXPECT_NEAR(f.vm.cpu_seconds(), 1.0, 1e-9);  // guest work unchanged
}

}  // namespace
}  // namespace hm::vm
