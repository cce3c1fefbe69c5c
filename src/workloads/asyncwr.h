// AsyncWR benchmark (Section 5.3): the paper's own tool for mixing compute
// with moderate, constant I/O pressure. Each iteration keeps the CPU busy
// (incrementing a counter) while generating random data into a memory
// buffer; the buffer is copied at the start of the next iteration and
// written asynchronously to the file system. Defaults generate ~6 MB/s of
// write pressure; Figure 4 fixes the total data at 1800 MB per instance.
#pragma once

#include "sim/sync.h"
#include "workloads/workload.h"

namespace hm::workloads {

struct AsyncWrConfig {
  int iterations = 1800;  // x 1 MB = 1800 MB total (Figure 4 setup)
  std::uint64_t bytes_per_iter = 1 * storage::kMiB;
  /// Compute time per iteration; 1 MB / (1/6 s) = the paper's ~6 MB/s.
  double iter_compute_s = 1.0 / 6.0;
  std::uint64_t file_offset = 1 * storage::kGiB;
};

class AsyncWrWorkload final : public Workload {
 public:
  /// Anonymous working set: double buffer + bookkeeping.
  static constexpr std::uint64_t kWsBytes = 4 * storage::kMiB;
  /// Memory dirty rate while computing (generate + copy of the buffer).
  static constexpr double kDirtyBps = 12.0e6;

  explicit AsyncWrWorkload(AsyncWrConfig cfg = {}) : cfg_(cfg) {}
  const char* name() const noexcept override { return "AsyncWR"; }
  sim::Task run(vm::VmInstance& vm) override;

  const AsyncWrConfig& config() const noexcept { return cfg_; }
  int iterations_done() const noexcept { return iterations_done_; }
  double finished_at() const noexcept { return finished_at_; }

 private:
  sim::Task async_write(vm::VmInstance& vm, std::uint64_t offset, sim::Gate& done);

  AsyncWrConfig cfg_;
  int iterations_done_ = 0;
  double finished_at_ = 0;
};

}  // namespace hm::workloads
