#include "storage/repository.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace hm::storage {
namespace {

struct RepoFixture {
  sim::Simulator s;
  net::FlowNetwork network;
  ImageConfig img{16 * kMiB, static_cast<std::uint32_t>(kMiB)};
  Repository repo;
  net::NodeId reader;
  RepoFixture() : network(s, net::FlowNetworkConfig{1e12, 0.0}), repo(s, network, img) {
    reader = network.add_node(100e6);
  }
};

sim::Task fetch(Repository* r, net::NodeId reader, ChunkId c, double* done_at,
                sim::Simulator* s) {
  co_await r->fetch_chunk(reader, c);
  *done_at = s->now();
}

TEST(Repository, RoundRobinStriping) {
  RepoFixture f;
  for (int i = 0; i < 4; ++i) f.repo.add_storage_node(f.network.add_node(100e6));
  EXPECT_EQ(f.repo.owner_of(0), f.repo.owner_of(4));
  EXPECT_NE(f.repo.owner_of(0), f.repo.owner_of(1));
  EXPECT_EQ(f.repo.storage_node_count(), 4u);
}

TEST(Repository, FetchMovesOneChunkOfTraffic) {
  RepoFixture f;
  f.repo.add_storage_node(f.network.add_node(100e6));
  double done_at = -1;
  f.s.spawn(fetch(&f.repo, f.reader, 0, &done_at, &f.s));
  f.s.run();
  EXPECT_GT(done_at, 0);
  EXPECT_DOUBLE_EQ(f.network.traffic_bytes(net::TrafficClass::kRepoRead),
                   static_cast<double>(kMiB));
  EXPECT_EQ(f.repo.chunks_served(), 1u);
}

TEST(Repository, ServerDiskTimeCharged) {
  RepoFixture f;
  Disk server_disk(f.s, DiskConfig{50e6, 0.0});
  f.repo.add_storage_node(f.network.add_node(100e6), &server_disk);
  double done_at = -1;
  f.s.spawn(fetch(&f.repo, f.reader, 0, &done_at, &f.s));
  f.s.run();
  EXPECT_DOUBLE_EQ(server_disk.bytes_read(), static_cast<double>(kMiB));
  // disk (1/50) + network (1/100) MiB seconds
  EXPECT_NEAR(done_at, kMiB / 50e6 + kMiB / 100e6, 1e-4);
}

TEST(Repository, StripedReadsSpreadOverServers) {
  RepoFixture f;
  std::vector<net::NodeId> servers;
  for (int i = 0; i < 4; ++i) {
    servers.push_back(f.network.add_node(100e6));
    f.repo.add_storage_node(servers.back());
  }
  // Fetch chunks 0..3 concurrently: each comes from a distinct server, so
  // the reader's ingress NIC (100 MB/s) is the only bottleneck.
  std::vector<double> done(4, -1);
  for (ChunkId c = 0; c < 4; ++c)
    f.s.spawn(fetch(&f.repo, f.reader, c, &done[c], &f.s));
  f.s.run();
  for (double d : done) EXPECT_NEAR(d, 4.0 * kMiB / 100e6, 1e-4);
}

TEST(Repository, ConcurrentReadersOfDisjointChunksDoNotContend) {
  RepoFixture f;
  for (int i = 0; i < 2; ++i) f.repo.add_storage_node(f.network.add_node(100e6));
  const net::NodeId reader2 = f.network.add_node(100e6);
  double d1 = -1, d2 = -1;
  f.s.spawn(fetch(&f.repo, f.reader, 0, &d1, &f.s));
  f.s.spawn(fetch(&f.repo, reader2, 1, &d2, &f.s));
  f.s.run();
  EXPECT_NEAR(d1, kMiB / 100e6, 1e-4);
  EXPECT_NEAR(d2, kMiB / 100e6, 1e-4);
}

}  // namespace
}  // namespace hm::storage
