#include "storage/pvfs.h"

#include <cassert>

namespace hm::storage {

Pvfs::Pvfs(sim::Simulator& sim, net::FlowNetwork& net)
    : sim_(sim), net_(net), available_(sim) {}

void Pvfs::add_server(net::NodeId node, Disk* disk) {
  servers_.push_back(Server{node, disk});
}

std::vector<Pvfs::Extent> Pvfs::extents_of(std::uint64_t offset, std::uint64_t len) const {
  std::vector<Extent> out;
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;
  while (pos < end) {
    const std::uint64_t stripe_idx = pos / kStripeBytes;
    const std::uint64_t stripe_end = (stripe_idx + 1) * kStripeBytes;
    const std::uint64_t n = std::min(end, stripe_end) - pos;
    out.push_back(Extent{static_cast<std::size_t>(stripe_idx % servers_.size()), n});
    pos += n;
  }
  return out;
}

sim::Task Pvfs::do_extent(net::NodeId client, Extent e, bool is_write,
                          sim::WaitGroup& wg) {
  const Server& srv = servers_[e.server];
  for (;;) {
    bool ok;
    if (is_write) {
      ok = co_await net_.transfer(client, srv.node, static_cast<double>(e.bytes),
                                  net::TrafficClass::kPvfsData);
      if (ok && srv.disk != nullptr)
        co_await srv.disk->write(static_cast<double>(e.bytes));
    } else {
      if (srv.disk != nullptr)
        co_await srv.disk->read(static_cast<double>(e.bytes));
      ok = co_await net_.transfer(srv.node, client, static_cast<double>(e.bytes),
                                  net::TrafficClass::kPvfsData);
    }
    if (ok) break;
    co_await net_.wait_node_up(client);  // crashed endpoint: retry after reboot
    co_await net_.wait_node_up(srv.node);
  }
  wg.done();
}

sim::Task Pvfs::write(net::NodeId client, std::uint64_t offset, std::uint64_t len) {
  assert(!servers_.empty());
  ++ops_;
  bytes_written_ += len;
  co_await available_.wait_open();
  // Metadata round trip to the primary server + server-side processing.
  while (!co_await net_.request_response(client, servers_[0].node, kRpcBytes, kRpcBytes,
                                         net::TrafficClass::kControl)) {
    co_await net_.wait_node_up(client);
    co_await net_.wait_node_up(servers_[0].node);
    co_await available_.wait_open();
  }
  co_await sim_.delay(kServerOpLatencyS);
  sim::WaitGroup wg(sim_);
  for (const Extent& e : extents_of(offset, len)) {
    wg.add();
    sim_.spawn(do_extent(client, e, /*is_write=*/true, wg));
  }
  co_await wg.wait();
}

sim::Task Pvfs::read(net::NodeId client, std::uint64_t offset, std::uint64_t len) {
  assert(!servers_.empty());
  ++ops_;
  bytes_read_ += len;
  co_await available_.wait_open();
  while (!co_await net_.request_response(client, servers_[0].node, kRpcBytes, kRpcBytes,
                                         net::TrafficClass::kControl)) {
    co_await net_.wait_node_up(client);
    co_await net_.wait_node_up(servers_[0].node);
    co_await available_.wait_open();
  }
  co_await sim_.delay(kServerOpLatencyS);
  sim::WaitGroup wg(sim_);
  for (const Extent& e : extents_of(offset, len)) {
    wg.add();
    sim_.spawn(do_extent(client, e, /*is_write=*/false, wg));
  }
  co_await wg.wait();
}

/// RAII CPU-load registration spanning one PVFS client op; the node is
/// captured at op start so a mid-op migration releases the right node.
class PvfsBackend::LoadScope {
 public:
  explicit LoadScope(PvfsBackend& b) : b_(b), node_(b.client_) {
    if (b_.cpu_hook_) b_.cpu_hook_(node_, b_.cpu_load_);
  }
  ~LoadScope() {
    if (b_.cpu_hook_) b_.cpu_hook_(node_, -b_.cpu_load_);
  }

 private:
  PvfsBackend& b_;
  net::NodeId node_;
};

sim::Task PvfsBackend::backend_read_chunk(ChunkId c) {
  LoadScope load(*this);
  co_await pvfs_.read(client_, static_cast<std::uint64_t>(c) * img_.chunk_bytes,
                      img_.chunk_bytes);
}

sim::Task PvfsBackend::backend_write_chunk(ChunkId c) {
  LoadScope load(*this);
  const std::uint64_t meta = cow_.on_write(c);
  if (meta > 0) {
    // qcow2 cluster allocation: metadata update must be durable before data.
    co_await pvfs_.write(client_, 0, meta);
  }
  co_await pvfs_.write(client_, static_cast<std::uint64_t>(c) * img_.chunk_bytes,
                       img_.chunk_bytes);
}

}  // namespace hm::storage
