#include "workloads/cm1.h"

#include <cassert>

namespace hm::workloads {

Cm1Application::Cm1Application(sim::Simulator& sim, std::vector<vm::VmInstance*> ranks,
                               Cm1Config cfg)
    : sim_(sim),
      ranks_(std::move(ranks)),
      cfg_(cfg),
      barrier_(sim, ranks_.size()),
      done_(sim),
      outputs_written_(ranks_.size(), 0) {
  assert(static_cast<int>(ranks_.size()) == cfg_.ranks());
}

std::vector<int> Cm1Application::neighbours(int rank) const {
  const int x = rank % cfg_.grid_x;
  const int y = rank / cfg_.grid_x;
  std::vector<int> out;
  if (x > 0) out.push_back(rank - 1);
  if (x < cfg_.grid_x - 1) out.push_back(rank + 1);
  if (y > 0) out.push_back(rank - cfg_.grid_x);
  if (y < cfg_.grid_y - 1) out.push_back(rank + cfg_.grid_x);
  return out;
}

namespace {
sim::Task send_halo(vm::VmInstance& vm, net::NodeId from, net::NodeId to, double bytes,
                    sim::WaitGroup& wg) {
  // Halo sends are application traffic issued outside the VmInstance file
  // API, so they report to the workload observer here (trace recording).
  vm::WorkloadObserver* obs = vm.observer();
  const std::uint32_t lane = obs ? obs->on_net_send(vm, from, to, bytes) : 0;
  co_await vm.cluster().network().transfer(from, to, bytes, net::TrafficClass::kAppComm);
  if (obs) obs->on_op_end(vm, lane);
  wg.done();
}
}  // namespace

sim::Task Cm1Application::run_rank(int rank) {
  vm::VmInstance& vm = *ranks_[rank];
  const std::vector<int> nbrs = neighbours(rank);
  int dump_idx = 0;
  for (int step = 0; step < cfg_.total_steps(); ++step) {
    // Stencil update over the subdomain.
    co_await vm.compute(cfg_.step_compute_s, cfg_.dirty_Bps, cfg_.ws_bytes);
    // Halo exchange: send borders to every neighbour in parallel. Node ids
    // are read at send time — a migrated rank communicates from its new
    // host.
    sim::WaitGroup wg(sim_);
    for (int nb : nbrs) {
      wg.add();
      sim_.spawn(send_halo(vm, vm.node(), ranks_[nb]->node(),
                           static_cast<double>(cfg_.halo_bytes), wg));
    }
    co_await wg.wait();
    // BSP step synchronization: one slow rank stalls all of them.
    co_await barrier_.arrive_and_wait();
    if ((step + 1) % cfg_.steps_per_output == 0) {
      const int slot = cfg_.dump_slots > 0 ? dump_idx % cfg_.dump_slots : dump_idx;
      const std::uint64_t dump_off =
          cfg_.file_offset + static_cast<std::uint64_t>(slot) * cfg_.output_bytes;
      co_await vm.file_write(dump_off, cfg_.output_bytes);
      // Dumps are collected and processed externally (the paper omits the
      // visualization part): once written back, drop the dump from the
      // guest cache so resident memory stays bounded across outputs.
      co_await vm.fsync();
      vm.drop_file_cache(dump_off, cfg_.output_bytes);
      ++dump_idx;
      ++outputs_written_[rank];
    }
  }
  done_.done();
}

sim::Task Cm1Application::run_all() {
  t_start_ = sim_.now();
  done_.add(ranks_.size());
  for (int r = 0; r < static_cast<int>(ranks_.size()); ++r) sim_.spawn(run_rank(r));
  co_await done_.wait();
  t_end_ = sim_.now();
}

}  // namespace hm::workloads
