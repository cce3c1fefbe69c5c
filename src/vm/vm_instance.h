// A running VM instance: guest memory, guest page cache over a block
// backend (migration manager or PVFS), a run/pause gate driven by the
// hypervisor, CPU accounting (the "computational potential" counter used by
// the paper's Figure 4(c)) and the file I/O API workloads use.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>

#include "core/metrics.h"
#include "net/flow_network.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "storage/page_cache.h"
#include "vm/compute_node.h"
#include "vm/memory.h"
#include "vm/workload_observer.h"

namespace hm::vm {

struct VmConfig {
  GuestMemoryConfig memory{};
  storage::PageCacheConfig cache{};
  double compute_slice_s = 0.1;  // CPU accounting granularity
};

class VmInstance {
 public:
  VmInstance(sim::Simulator& sim, Cluster& cluster, net::NodeId home, int id,
             storage::BlockBackend& backend, VmConfig cfg = {});
  VmInstance(const VmInstance&) = delete;
  VmInstance& operator=(const VmInstance&) = delete;

  int id() const noexcept { return id_; }
  net::NodeId node() const noexcept { return node_; }
  void set_node(net::NodeId n) noexcept { node_ = n; }

  GuestMemory& memory() noexcept { return memory_; }
  storage::PageCache& page_cache() noexcept { return cache_; }
  storage::BlockBackend& backend() noexcept { return backend_; }
  Cluster& cluster() noexcept { return cluster_; }

  // --- execution control (hypervisor) ---------------------------------------
  // Depth-counted: the hypervisor's stop-and-copy pause and a fault
  // injector's crash pause can overlap, and the VM runs again only once
  // every pauser has resumed it.
  void pause() noexcept {
    if (pause_depth_++ == 0) run_gate_.close();
  }
  void resume() {
    assert(pause_depth_ > 0);
    if (--pause_depth_ == 0) run_gate_.open();
  }
  bool running() const noexcept { return run_gate_.is_open(); }
  sim::Gate& run_gate() noexcept { return run_gate_; }

  // --- workload API ----------------------------------------------------------
  /// Burn `seconds` of CPU; optionally dirty guest memory at `dirty_Bps`
  /// over an anonymous working set of `ws_bytes`. CPU time accrues only
  /// while the VM is running (paused slices simply wait).
  sim::Task compute(double seconds, double dirty_Bps = 0, std::uint64_t ws_bytes = 0);

  /// Buffered file I/O through the guest page cache (offsets are virtual
  /// disk offsets; partial chunks are rounded to full chunks, matching the
  /// paper's 256 KB-aligned workloads). An op that runs past the image's
  /// last chunk touches nothing and records error().
  sim::Task file_write(std::uint64_t offset, std::uint64_t len);
  sim::Task file_read(std::uint64_t offset, std::uint64_t len);
  sim::Task fsync();
  /// posix_fadvise(DONTNEED) equivalent: drop clean cached data for the
  /// range and release the backing guest memory (used by workloads whose
  /// output files are collected externally, like CM1's dumps).
  void drop_file_cache(std::uint64_t offset, std::uint64_t len);

  /// The first file op that ran past the image end, described (VM id,
  /// offset, length, image bytes); empty while every op fit. Sticky.
  const std::string& error() const noexcept { return error_; }

  /// AsyncWR's counter: total CPU seconds executed.
  double cpu_seconds() const noexcept { return cpu_seconds_; }
  core::IoStats& io_stats() noexcept { return io_; }
  const core::IoStats& io_stats() const noexcept { return io_; }

  /// Offset of the anonymous working-set region in guest memory.
  std::uint64_t anon_region_offset() const noexcept { return cfg_.memory.base_used_bytes; }

  // --- workload observation (trace recording) --------------------------------
  /// Attach an observer that sees every workload-API call (null detaches).
  /// `trace_vm` is the observer's index for this VM (e.g. the trace vm
  /// field a recorder stamps into records). Pure observation: attaching an
  /// observer never changes the simulated timeline.
  void set_observer(WorkloadObserver* o, std::uint32_t trace_vm = 0) noexcept {
    observer_ = o;
    trace_vm_ = trace_vm;
  }
  WorkloadObserver* observer() const noexcept { return observer_; }
  std::uint32_t trace_vm() const noexcept { return trace_vm_; }

 private:
  /// True when [offset, offset + len) ends inside the image's chunks; else
  /// records the diagnostic (first one wins) and returns false.
  bool in_image(const char* op, std::uint64_t offset, std::uint64_t len);

  sim::Simulator& sim_;
  Cluster& cluster_;
  net::NodeId node_;
  int id_;
  VmConfig cfg_;
  GuestMemory memory_;
  storage::BlockBackend& backend_;
  storage::PageCache cache_;
  sim::Gate run_gate_;
  std::uint32_t pause_depth_ = 0;
  double cpu_seconds_ = 0;
  core::IoStats io_;
  sim::Rng rng_;
  WorkloadObserver* observer_ = nullptr;
  std::uint32_t trace_vm_ = 0;
  std::string error_;
};

}  // namespace hm::vm
