// CM1 model (Section 5.5): a 3-D atmospheric stencil code distributed over
// an 8x8 grid of MPI ranks, one rank per VM. Every timestep each rank
// computes over its 200x200 subdomain, exchanges subdomain borders with its
// grid neighbours (network intensive), and synchronizes. Every
// `steps_per_output` steps it dumps ~200 MB of field data to local storage
// (moderate I/O pressure). The defining sensitivity the paper measures:
// one paused/slow rank drags every other rank down through the halo
// synchronization.
#pragma once

#include <memory>
#include <vector>

#include "sim/sync.h"
#include "workloads/workload.h"

namespace hm::workloads {

struct Cm1Config {
  int grid_x = 8;
  int grid_y = 8;
  double step_compute_s = 2.0;
  int steps_per_output = 20;  // 20 x 2 s = the paper's ~40 s per output
  int num_outputs = 10;
  std::uint64_t output_bytes = 200 * storage::kMiB;
  std::uint64_t halo_bytes = 320 * storage::kKiB;  // 200-point border x fields
  std::uint64_t file_offset = 1 * storage::kGiB;
  /// Stencil update dirty rate over the subdomain arrays while computing.
  double dirty_Bps = 30.0e6;
  std::uint64_t ws_bytes = 256 * storage::kMiB;
  /// Scratch-space discipline: collected dumps are deleted, so the on-disk
  /// footprint rotates over this many output slots instead of accumulating
  /// (0 = never reuse, keep every output on disk).
  int dump_slots = 2;

  int ranks() const noexcept { return grid_x * grid_y; }
  int total_steps() const noexcept { return steps_per_output * num_outputs; }
};

/// Whole-application driver: owns the barrier and runs one coroutine per
/// rank VM. Unlike the single-VM workloads this one spans many VMs.
class Cm1Application {
 public:
  Cm1Application(sim::Simulator& sim, std::vector<vm::VmInstance*> ranks,
                 Cm1Config cfg = {});

  /// Launch every rank; completes when all ranks finished all outputs.
  sim::Task run_all();

  const Cm1Config& config() const noexcept { return cfg_; }
  double started_at() const noexcept { return t_start_; }
  double finished_at() const noexcept { return t_end_; }
  double execution_time() const noexcept { return t_end_ - t_start_; }
  int outputs_written(int rank) const { return outputs_written_[rank]; }

 private:
  sim::Task run_rank(int rank);
  std::vector<int> neighbours(int rank) const;

  sim::Simulator& sim_;
  std::vector<vm::VmInstance*> ranks_;
  Cm1Config cfg_;
  sim::Barrier barrier_;
  sim::WaitGroup done_;
  std::vector<int> outputs_written_;
  double t_start_ = 0;
  double t_end_ = 0;
};

}  // namespace hm::workloads
