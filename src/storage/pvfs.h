// Parallel file system model (PVFS stand-in) for the pvfs-shared baseline.
//
// Files are striped over server nodes; every operation pays a metadata RPC
// round trip plus striped data flows to/from the servers (PVFS has no
// client-side cache, so nothing is absorbed locally). The qcow2 overlay on
// top adds metadata writes on first allocation (see CowImage).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/flow_network.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/chunk_store.h"
#include "storage/cow_image.h"
#include "storage/disk.h"
#include "storage/page_cache.h"

namespace hm::storage {

class Pvfs {
 public:
  static constexpr std::uint64_t kStripeBytes = 64 * kKiB;
  /// Metadata request/response size.
  static constexpr double kRpcBytes = 1024;
  /// Per-operation server-side processing time (request handling, locking,
  /// POSIX consistency bookkeeping). PVFS has no client cache and qcow2 on
  /// top serializes cluster updates, so the effective per-client throughput
  /// is far below the raw stripe bandwidth — this is what the paper's
  /// pvfs-shared baseline measures (<5% of the local write ceiling).
  static constexpr double kServerOpLatencyS = 4e-3;

  Pvfs(sim::Simulator& sim, net::FlowNetwork& net);
  Pvfs(const Pvfs&) = delete;
  Pvfs& operator=(const Pvfs&) = delete;

  void add_server(net::NodeId node, Disk* disk = nullptr);
  std::size_t server_count() const noexcept { return servers_.size(); }

  sim::Task write(net::NodeId client, std::uint64_t offset, std::uint64_t len);
  sim::Task read(net::NodeId client, std::uint64_t offset, std::uint64_t len);

  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t bytes_read() const noexcept { return bytes_read_; }
  std::uint64_t ops() const noexcept { return ops_; }

  /// Fault injection: while unavailable new ops park on the gate until
  /// service returns; ops whose transfers fail (crashed endpoint) wait for
  /// the node to reboot and retry.
  void set_available(bool up) {
    up ? available_.open() : available_.close();
  }
  bool available() const noexcept { return available_.is_open(); }

 private:
  struct Server {
    net::NodeId node;
    Disk* disk;
  };
  struct Extent {
    std::size_t server;
    std::uint64_t bytes;
  };
  std::vector<Extent> extents_of(std::uint64_t offset, std::uint64_t len) const;
  // Extent passed by value: the coroutine outlives the caller's extent list.
  sim::Task do_extent(net::NodeId client, Extent e, bool is_write, sim::WaitGroup& wg);

  sim::Simulator& sim_;
  net::FlowNetwork& net_;
  std::vector<Server> servers_;
  sim::Gate available_;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t ops_ = 0;
};

/// BlockBackend adapter: presents a qcow2-on-PVFS virtual disk to the guest
/// page cache. The client node follows the VM across migrations (that is
/// the whole point of the pvfs-shared baseline: source and destination see
/// the same file, so no storage transfer happens).
class PvfsBackend final : public BlockBackend {
 public:
  PvfsBackend(Pvfs& pvfs, ImageConfig img, net::NodeId client)
      : pvfs_(pvfs), img_(img), cow_(img), client_(client) {}

  void set_client_node(net::NodeId n) noexcept { client_ = n; }
  net::NodeId client_node() const noexcept { return client_; }
  const CowImage& cow() const noexcept { return cow_; }

  /// Host CPU cost of PVFS client I/O (kernel client + network stack): the
  /// hook receives (node, +load) when an op starts and (node, -load) when
  /// it completes. The cloud layer wires this to the compute node's CPU
  /// accounting — it is what makes pvfs-shared the worst performer on the
  /// paper's "impact on application performance" axis even without any
  /// storage migration.
  void set_cpu_load_hook(std::function<void(net::NodeId, double)> hook,
                         double load = 0.35) {
    cpu_hook_ = std::move(hook);
    cpu_load_ = load;
  }

  sim::Task backend_read_chunk(ChunkId c) override;
  sim::Task backend_write_chunk(ChunkId c) override;

 private:
  class LoadScope;

  Pvfs& pvfs_;
  ImageConfig img_;
  CowImage cow_;
  net::NodeId client_;
  std::function<void(net::NodeId, double)> cpu_hook_;
  double cpu_load_ = 0.35;
};

}  // namespace hm::storage
