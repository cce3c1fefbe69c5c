#include "workloads/asyncwr.h"

#include <memory>

namespace hm::workloads {

sim::Task AsyncWrWorkload::async_write(vm::VmInstance& vm, std::uint64_t offset,
                                       sim::Gate& done) {
  co_await vm.file_write(offset, cfg_.bytes_per_iter);
  done.open();
}

sim::Task AsyncWrWorkload::run(vm::VmInstance& vm) {
  auto& simulator = vm.cluster().sim();
  std::unique_ptr<sim::Gate> prev_write;  // at most one write in flight
  std::uint64_t off = cfg_.file_offset;
  for (int it = 0; it < cfg_.iterations; ++it) {
    // Compute while the previous iteration's buffer drains to disk.
    co_await vm.compute(cfg_.iter_compute_s, kDirtyBps, kWsBytes);
    // The alternate buffer can only be reused once its write completed.
    if (prev_write) co_await prev_write->wait_open();
    prev_write = std::make_unique<sim::Gate>(simulator, /*open=*/false);
    simulator.spawn(async_write(vm, off, *prev_write));
    off += cfg_.bytes_per_iter;
    ++iterations_done_;
  }
  if (prev_write) co_await prev_write->wait_open();
  finished_at_ = simulator.now();
}

}  // namespace hm::workloads
