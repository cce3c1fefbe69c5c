#include "storage/pvfs.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace hm::storage {
namespace {

struct PvfsFixture {
  sim::Simulator s;
  net::FlowNetwork network;
  Pvfs pvfs;
  net::NodeId client;
  std::vector<Disk*> disks;
  std::vector<std::unique_ptr<Disk>> disk_storage;

  explicit PvfsFixture(int servers = 4)
      : network(s, net::FlowNetworkConfig{1e12, 0.0}), pvfs(s, network) {
    client = network.add_node(100e6);
    for (int i = 0; i < servers; ++i) {
      disk_storage.push_back(std::make_unique<Disk>(s, DiskConfig{55e6, 0.0}));
      pvfs.add_server(network.add_node(100e6), disk_storage.back().get());
    }
  }
};

sim::Task do_write(Pvfs* p, net::NodeId c, std::uint64_t off, std::uint64_t len,
                   double* done_at, sim::Simulator* s) {
  co_await p->write(c, off, len);
  *done_at = s->now();
}
sim::Task do_read(Pvfs* p, net::NodeId c, std::uint64_t off, std::uint64_t len,
                  double* done_at, sim::Simulator* s) {
  co_await p->read(c, off, len);
  *done_at = s->now();
}

TEST(Pvfs, WriteStripesAcrossServers) {
  PvfsFixture f;
  double done_at = -1;
  // 256 KB write = 4 stripes of 64 KB -> one per server.
  ASSERT_EQ(Pvfs::kStripeBytes, 64 * kKiB);
  f.s.spawn(do_write(&f.pvfs, f.client, 0, 256 * kKiB, &done_at, &f.s));
  f.s.run();
  for (auto& d : f.disk_storage)
    EXPECT_DOUBLE_EQ(d->bytes_written(), 64.0 * kKiB);
  EXPECT_EQ(f.pvfs.ops(), 1u);
  EXPECT_DOUBLE_EQ(f.pvfs.bytes_written(), 256.0 * kKiB);
}

TEST(Pvfs, ReadReturnsOverNetwork) {
  PvfsFixture f;
  double done_at = -1;
  f.s.spawn(do_read(&f.pvfs, f.client, 0, 128 * kKiB, &done_at, &f.s));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.network.traffic_bytes(net::TrafficClass::kPvfsData), 128.0 * kKiB);
  EXPECT_DOUBLE_EQ(f.pvfs.bytes_read(), 128.0 * kKiB);
}

TEST(Pvfs, MetadataRpcCharged) {
  PvfsFixture f;
  double done_at = -1;
  f.s.spawn(do_write(&f.pvfs, f.client, 0, 64 * kKiB, &done_at, &f.s));
  f.s.run();
  // One metadata request and its response.
  ASSERT_EQ(Pvfs::kRpcBytes, 1024.0);
  EXPECT_DOUBLE_EQ(f.network.traffic_bytes(net::TrafficClass::kControl), 2.0 * Pvfs::kRpcBytes);
}

TEST(Pvfs, UnalignedWriteCoversCorrectStripes) {
  PvfsFixture f;
  double done_at = -1;
  // 96 KB starting at 32 KB: stripe 0 gets 32 KB, stripe 1 gets 64 KB.
  f.s.spawn(do_write(&f.pvfs, f.client, 32 * kKiB, 96 * kKiB, &done_at, &f.s));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.disk_storage[0]->bytes_written(), 32.0 * kKiB);
  EXPECT_DOUBLE_EQ(f.disk_storage[1]->bytes_written(), 64.0 * kKiB);
}

TEST(Pvfs, NoClientCacheMeansEveryOpIsRemote) {
  PvfsFixture f;
  double d1 = -1, d2 = -1;
  f.s.spawn(do_read(&f.pvfs, f.client, 0, 64 * kKiB, &d1, &f.s));
  f.s.run();
  f.s.spawn(do_read(&f.pvfs, f.client, 0, 64 * kKiB, &d2, &f.s));
  f.s.run();
  // Same offset read twice -> twice the traffic (PVFS has no client cache).
  EXPECT_DOUBLE_EQ(f.network.traffic_bytes(net::TrafficClass::kPvfsData), 128.0 * kKiB);
}

TEST(PvfsBackend, ChunkOpsMapToFileExtents) {
  PvfsFixture f;
  ImageConfig img{16 * kMiB, static_cast<std::uint32_t>(kMiB)};
  PvfsBackend backend(f.pvfs, img, f.client);
  f.s.spawn([](PvfsBackend* b) -> sim::Task {
    co_await b->backend_write_chunk(2);
    co_await b->backend_read_chunk(2);
  }(&backend));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.pvfs.bytes_read(), 1.0 * kMiB);
  // Write includes qcow2 allocation metadata on first touch.
  EXPECT_GT(f.pvfs.bytes_written(), 1.0 * kMiB);
  EXPECT_TRUE(backend.cow().allocated(2));
}

TEST(PvfsBackend, SecondWriteSkipsAllocationMetadata) {
  PvfsFixture f;
  ImageConfig img{16 * kMiB, static_cast<std::uint32_t>(kMiB)};
  PvfsBackend backend(f.pvfs, img, f.client);
  f.s.spawn([](PvfsBackend* b) -> sim::Task {
    co_await b->backend_write_chunk(2);
  }(&backend));
  f.s.run();
  const double after_first = f.pvfs.bytes_written();
  f.s.spawn([](PvfsBackend* b) -> sim::Task {
    co_await b->backend_write_chunk(2);
  }(&backend));
  f.s.run();
  EXPECT_DOUBLE_EQ(f.pvfs.bytes_written() - after_first, 1.0 * kMiB);
}

TEST(PvfsBackend, ClientNodeFollowsMigration) {
  PvfsFixture f;
  ImageConfig img{16 * kMiB, static_cast<std::uint32_t>(kMiB)};
  PvfsBackend backend(f.pvfs, img, f.client);
  const net::NodeId dest = f.network.add_node(100e6);
  backend.set_client_node(dest);
  EXPECT_EQ(backend.client_node(), dest);
}

}  // namespace
}  // namespace hm::storage
