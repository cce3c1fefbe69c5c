// Trace workflow end to end:
//   1. record a live AsyncWR run (with a migration) into a trace,
//   2. replay it and verify the migration metrics reproduce byte-identically
//      (the trace axis determinism contract),
//   3. replay a GENERATED Zipfian hot/cold trace — a skewed dirty-page /
//      dirty-chunk pattern none of the closed-form workloads can produce —
//      under the same migration schedule.
//
// Traces live in a versioned binary format (see src/workloads/trace.h);
// tools/trace_info inspects, validates and generates trace files from the
// command line.
#include <cstdio>
#include <iostream>

#include "cloud/experiment.h"
#include "cloud/report.h"

using namespace hm;
using storage::kMiB;

namespace {

cloud::ExperimentConfig small_config() {
  cloud::ExperimentConfig cfg;
  cfg.approach = core::Approach::kHybrid;
  cfg.cluster.num_nodes = 8;
  cfg.cluster.image = storage::ImageConfig{256 * kMiB, static_cast<std::uint32_t>(kMiB)};
  cfg.vm.memory.ram_bytes = 256 * kMiB;
  cfg.vm.memory.page_bytes = kMiB;
  cfg.vm.memory.base_used_bytes = 32 * kMiB;
  cfg.vm.cache.capacity_bytes = 64 * kMiB;
  cfg.vm.cache.dirty_limit_bytes = 32 * kMiB;
  cfg.workload = cloud::WorkloadKind::kAsyncWr;
  cfg.asyncwr.iterations = 60;
  cfg.asyncwr.file_offset = 64 * kMiB;
  cfg.first_migration_at = 2.0;
  cfg.max_sim_time = 600.0;
  return cfg;
}

void print_migration(const char* label, const cloud::ExperimentResult& r) {
  const auto& m = r.migrations.at(0);
  std::cout << "  " << label << ": migration " << cloud::fmt_double(m.migration_time(), 3)
            << " s, downtime " << cloud::fmt_double(m.downtime_s * 1e3, 2) << " ms, "
            << cloud::fmt_bytes(r.migration_traffic) << " migration traffic\n";
}

}  // namespace

int main() {
  // --- 1. record a live run --------------------------------------------------
  cloud::ExperimentConfig cfg = small_config();
  workloads::TraceRecorder recorder;
  cloud::ExperimentConfig rec_cfg = cfg;
  rec_cfg.trace_recorder = &recorder;
  std::cout << "Recording a live AsyncWR run (1 migration at t=2s)...\n";
  const cloud::ExperimentResult live = cloud::Experiment(rec_cfg).run();
  const workloads::TraceData& trace = recorder.data();
  std::cout << "  captured " << trace.records.size() << " records from "
            << trace.header.num_vms << " VM\n";
  print_migration("live   ", live);

  const std::string path = "trace_replay_example.trace";
  std::string err;
  if (!workloads::write_trace(path, trace, &err)) {
    std::cerr << err << "\n";
    return 1;
  }

  // --- 2. replay and compare ------------------------------------------------
  cfg.normalize();
  cloud::ExperimentConfig replay_cfg = cfg;
  replay_cfg.workload = cloud::WorkloadKind::kTrace;
  replay_cfg.trace.path = path;          // streamed back off the file
  replay_cfg.trace.broadcast = false;    // exact per-VM replay
  const cloud::ExperimentResult replayed = cloud::Experiment(replay_cfg).run();
  if (!replayed.error.empty()) {
    std::cerr << replayed.error << "\n";
    return 1;
  }
  print_migration("replay ", replayed);
  const auto& a = live.migrations.at(0);
  const auto& b = replayed.migrations.at(0);
  const bool identical = a.downtime_s == b.downtime_s &&
                         a.t_source_released == b.t_source_released &&
                         live.total_traffic == replayed.total_traffic;
  std::cout << "  byte-identical: " << (identical ? "YES" : "NO") << "\n";

  // --- 3. a generated Zipfian hot/cold trace ---------------------------------
  std::cout << "\nReplaying a generated Zipfian hot/cold trace instead:\n";
  cloud::ExperimentConfig gen_cfg = cfg;
  gen_cfg.workload = cloud::WorkloadKind::kTrace;
  gen_cfg.trace.broadcast = true;  // single-source stream, any VM count
  std::string perr;
  if (!workloads::parse_trace_spec(
          "zipf:dur=30,theta=0.99,pages=128,page_kib=1024,chunks=128,chunk_kib=1024,"
          "offset_mib=64",
          &gen_cfg.trace, &perr)) {
    std::cerr << perr << "\n";
    return 1;
  }
  const cloud::ExperimentResult zipf = cloud::Experiment(gen_cfg).run();
  print_migration("zipf   ", zipf);

  std::remove(path.c_str());
  std::cout << "\nThe trace axis replays recorded runs bit-identically and opens\n"
               "skewed/bursty/phase-shifting write patterns via trace generators\n"
               "(see trace_info --gen and paper_figures' scale/nonblocking-trace-zipf).\n";
  return identical ? 0 : 1;
}
