// Engine-perf scaling sweep: Figure 4's concurrent-migration axis pushed to
// datacenter scale (2 -> 256 simultaneous migrations under AsyncWR I/O
// pressure). Emits one JSON row per scenario on stdout, after the field-class
// map of cloud/report.h's result-field table, so BENCH_*.json files can
// track the engine-throughput trajectory (events/sec, flows/sec, wall ms)
// across PRs, alongside the virtual-time results they must not perturb.
//
// Since the component-scoped incremental solver the sweep also reports
// solver-work counters: component water-fills, flow re-solves (total and
// per epoch) and escalations (epochs where a saturated shared constraint
// forced a global solve). Two core topologies:
//  * oversub      — the historical graphene-style config: 20-node edge
//    switches on 1.25 GB/s uplinks and an 8 GB/s fabric. At high
//    concurrency the shared constraints saturate continuously, so nearly
//    every epoch escalates: this is the incremental solver's worst case and
//    pins down its overhead vs. the always-global seed solver.
//  * nonblocking  — a modern full-bisection Clos core (no finite fabric or
//    uplink constraint binds). Migrations decompose into per-NIC-pair
//    components, which is where component-scoped solving pays: an epoch's
//    chunk churn re-solves only the touched migration's flows.
//
// The third argument staggers migration starts. The default burst
// (stagger 0) launches every migration at the same virtual instant; because
// the sweep's VMs are homogeneous the migrations then run in lockstep and
// every epoch legitimately churns every component — epoch batching's best
// case and the incremental solver's worst. A non-zero stagger desyncs the
// chunk streams the way any real fleet is desynced, so each settle epoch
// carries churn from O(1) migrations and component caching pays off.
//
// The fourth argument selects the workload axis: the default AsyncWR
// generator, or a trace regime ("trace:zipf", "trace:phase:dur=30",
// "trace:file=PATH", ... — any spec parse_trace_spec accepts). Trace
// regimes replay a single-source dirty-page/dirty-chunk stream broadcast to
// every VM, opening the sweep to skewed/bursty/phase-shifting write
// patterns the closed-form workloads cannot produce; generated traces are
// seeded from the experiment seed, so trace sweeps carry the same
// determinism contract (and golden gate) as the AsyncWR ones.
//
// The fifth argument selects the fault regime: "none" (default) or any
// --faults spec ("faults:rand:crashes=2,degrades=4", "src-crash@40+15",
// "faults:churn:crash-mtbf=300,...;domains:rack0=0-3", ...) replayed
// identically at every concurrency point. Fault plans (scripted, seeded
// draws and continuous churn processes) fork the experiment seed, so fault
// sweeps are golden-gateable like the rest — and the `golden` ctests run the
// same fault and churn goldens under both solver regimes to pin the
// determinism contract down under failure timelines. Fault regimes add the
// result-field table's recovery fields to each row. Churn regimes also run
// the invariant auditor (cloud/auditor.h); any violation fails the sweep.
//
// The sixth argument sets the shard count: every experiment in the sweep
// runs on up to that many parallel in-process simulator shards (see
// cloud/shard_plan.h). The nonblocking core decomposes into independent
// shards; the oversub core's finite fabric/uplinks couple every flow, so
// its plan collapses to one shard (the JSON rows report shards=1 and the
// collapse reason). Either way the sharded timeline is byte-identical to
// shards=1 in every virtual-time field; only the wall-clock fields move,
// so a shards=N sweep gates against the same committed goldens via
// check_sweep_golden.py --shards.
//
// Usage: fig4_scale_sweep [max_n] [oversub|nonblocking] [stagger_s]
//                         [asyncwr|trace:SPEC] [none|faults:SPEC] [shards]
//                         [--full-solve]
//        (defaults: 256 oversub 0 asyncwr none 1). --full-solve, anywhere on
//        the command line, runs the full re-solve regime, which must
//        reproduce the incremental timeline.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "sim/fault_plan.h"

using namespace hm;
using namespace hm::bench;

namespace {

cloud::ExperimentConfig scale_config(std::size_t n, bool nonblocking, double stagger_s,
                                     const std::string& workload) {
  cloud::ExperimentConfig cfg = cloud::lean_fleet_config(nonblocking);
  if (workload != "asyncwr") {
    cfg.workload = cloud::WorkloadKind::kTrace;
    // Geometry tuned to the sweep VMs (1 GiB image / 1 GiB RAM): a 128 MiB
    // anon working set of 256 KiB pages and a 256 MiB file region, with
    // AsyncWR-comparable pressure over a 60 s stream. The spec string can
    // override any of it.
    cfg.trace.gen.page_bytes = 256 * kKiB;
    cfg.trace.gen.pages = 512;
    cfg.trace.gen.chunk_bytes = 256 * static_cast<std::uint32_t>(kKiB);
    cfg.trace.gen.chunks = 1024;
    cfg.trace.gen.file_offset = 256 * kMiB;
    cfg.trace.gen.duration_s = 60.0;
    cfg.trace.gen.dt_s = 0.25;
    cfg.trace.gen.mem_dirty_Bps = 12e6;
    cfg.trace.gen.chunk_write_Bps = 6e6;
    std::string err;
    if (!workloads::parse_trace_spec(workload, &cfg.trace, &err)) {
      std::cerr << "fig4_scale_sweep: " << err << "\n";
      std::exit(2);
    }
  }
  cfg.first_migration_at = 20.0;
  cfg.num_vms = n;
  cfg.num_migrations = n;
  cfg.num_destinations = n;
  cfg.migration_interval_s = stagger_s;  // 0 = simultaneous burst
  cfg.cluster.num_nodes = 2 * n + 8;
  cfg.max_sim_time = 3600.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full_solve = take_full_solve(argc, argv);
  const std::size_t max_n =
      argc > 1 ? cli::parse_number<std::size_t>("max_n", argv[1], 2, SIZE_MAX / 2) : 256;
  bool nonblocking = false;
  if (argc > 2) {
    if (std::strcmp(argv[2], "nonblocking") == 0) {
      nonblocking = true;
    } else if (std::strcmp(argv[2], "oversub") != 0) {
      std::cerr << "usage: fig4_scale_sweep [max_n] [oversub|nonblocking] [stagger_s]"
                   " [asyncwr|trace:SPEC] [none|faults:SPEC] [shards] [--full-solve]\n";
      return 2;
    }
  }
  const double stagger_s = argc > 3 ? cli::parse_number<double>("stagger_s", argv[3], 0.0) : 0.0;
  const std::string workload = argc > 4 ? argv[4] : "asyncwr";
  const std::string faults_arg = argc > 5 ? argv[5] : "none";
  const std::uint32_t shards =
      argc > 6 ? cli::parse_number<std::uint32_t>("shards", argv[6], 1) : 1;
  sim::FaultSpec faults;
  {
    std::string err;
    if (!sim::parse_fault_spec(faults_arg, &faults, &err)) {
      std::cerr << "fig4_scale_sweep: " << err << "\n";
      return 2;
    }
  }
  bool any_error = false;
  cloud::write_sweep_header(std::cout);
  bool first = true;
  const auto status_fields = cloud::result_fields().first(cloud::kRunStatusFields);
  const auto measured_fields = cloud::result_fields().subspan(cloud::kRunStatusFields);
  for (std::size_t n = 2; n <= max_n; n *= 2) {
    cloud::ExperimentConfig cfg = scale_config(n, nonblocking, stagger_s, workload);
    cfg.faults = faults;
    cfg.shards = shards;
    cfg.cluster.network.incremental = !full_solve;
    // Churn regimes carry the watchdog/invariant auditor: its periodic tick
    // is part of the timeline, so the churn goldens are generated with it on.
    cfg.audit = faults.churn;
    cloud::Experiment exp(std::move(cfg));
    const ExperimentResult r = exp.run();
    any_error = report_failures("fig4_scale_sweep", "n=" + std::to_string(n), r) || any_error;
    if (!first) std::cout << ",\n";
    first = false;
    std::cout << "  {\"concurrent_migrations\": " << n
              << ", \"core\": \"" << (nonblocking ? "nonblocking" : "oversub") << "\"";
    // The workload and faults specs appear only for non-default regimes,
    // keeping the committed AsyncWR goldens byte-compatible.
    if (workload != "asyncwr") std::cout << ", \"workload\": \"" << workload << "\"";
    if (faults.enabled()) std::cout << ", \"faults\": \"" << faults_arg << "\"";
    cloud::write_json_fields(std::cout, status_fields, exp.config(), r);
    std::cout << ", \"stagger_s\": " << stagger_s;
    cloud::write_json_fields(std::cout, measured_fields, exp.config(), r);
    std::cout << "}";
    std::cerr << "fig4_scale: n=" << n << " wall=" << r.wall_ms << " ms, "
              << r.engine_events << " events\n";
  }
  std::cout << "\n]}\n";
  return any_error ? 1 : 0;
}
