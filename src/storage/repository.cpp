#include "storage/repository.h"

#include <cassert>

namespace hm::storage {

Repository::Repository(sim::Simulator& sim, net::FlowNetwork& net, ImageConfig img)
    : sim_(sim), net_(net), img_(img), available_(sim) {}

void Repository::add_storage_node(net::NodeId node, Disk* disk) {
  servers_.push_back(Server{node, disk});
}

net::NodeId Repository::owner_of(ChunkId c) const noexcept {
  assert(!servers_.empty());
  return servers_[c % servers_.size()].node;
}

sim::Task Repository::fetch_chunk(net::NodeId reader, ChunkId c) {
  assert(!servers_.empty());
  const Server& srv = servers_[c % servers_.size()];
  for (;;) {
    co_await available_.wait_open();
    if (!co_await net_.transfer(reader, srv.node, kRequestBytes,
                                net::TrafficClass::kControl)) {
      co_await net_.wait_node_up(reader);
      co_await net_.wait_node_up(srv.node);
      continue;  // an endpoint crashed mid-request: retry after reboot
    }
    if (srv.disk != nullptr) co_await srv.disk->read(img_.chunk_bytes);
    if (co_await net_.transfer(srv.node, reader, img_.chunk_bytes,
                               net::TrafficClass::kRepoRead))
      break;
    co_await net_.wait_node_up(reader);
    co_await net_.wait_node_up(srv.node);
  }
  ++chunks_served_;
}

}  // namespace hm::storage
