// Striped distributed repository for base disk images (BlobSeer stand-in).
//
// The base image is split into chunks distributed round-robin over the
// participating storage nodes (the paper co-locates them with the compute
// nodes). Reads of base-image content therefore spread over the whole
// cluster and do not bottleneck on any single server, which is the property
// the paper relies on to fetch untouched image parts on demand instead of
// migrating them.
#pragma once

#include <cstdint>
#include <vector>

#include "net/flow_network.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/chunk_store.h"
#include "storage/disk.h"

namespace hm::storage {

class Repository {
 public:
  /// Wire size of one chunk fetch request.
  static constexpr double kRequestBytes = 512;

  Repository(sim::Simulator& sim, net::FlowNetwork& net, ImageConfig img);
  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;

  /// Register a storage node holding a stripe of every image.
  void add_storage_node(net::NodeId node, Disk* disk = nullptr);
  std::size_t storage_node_count() const noexcept { return servers_.size(); }

  /// Which storage node owns chunk `c` (round-robin striping).
  net::NodeId owner_of(ChunkId c) const noexcept;

  /// Fetch one base-image chunk to `reader` (request + striped response).
  sim::Task fetch_chunk(net::NodeId reader, ChunkId c);

  std::uint64_t chunks_served() const noexcept { return chunks_served_; }
  const ImageConfig& image() const noexcept { return img_; }

  /// Fault injection: while unavailable new fetches park on the gate until
  /// service returns (crashed endpoints are handled separately — a fetch
  /// whose transfer fails waits for the node to reboot and retries).
  void set_available(bool up) {
    up ? available_.open() : available_.close();
  }
  bool available() const noexcept { return available_.is_open(); }

 private:
  struct Server {
    net::NodeId node;
    Disk* disk;
  };

  sim::Simulator& sim_;
  net::FlowNetwork& net_;
  ImageConfig img_;
  std::vector<Server> servers_;
  sim::Gate available_;
  std::uint64_t chunks_served_ = 0;
};

}  // namespace hm::storage
