// Steady-state scheduler sweep: the continuous-arrival axis of the scale
// sweep. Instead of a fixed burst of launches, each point runs the
// cloud::Scheduler against an open Poisson request stream at fleet sizes
// 8 -> max_vms, with bounded concurrent admission, per-node capacity and
// anti-affinity placement constraints, and high-priority preemption — the
// paper's take-over scenario operated as a service rather than a one-shot
// experiment. Emits one JSON row per fleet size on stdout, in the
// fig4_scale_sweep shape (both draw their fields from cloud/report.h's
// result-field table) plus the scheduler block: request counters,
// queue/running peaks, and deterministic nearest-rank queueing-delay and
// downtime p50/p99/p999.
//
// Determinism contract: arrivals, priorities and victim-VM picks are forked
// RNG streams and every scheduling decision happens inside ordinary
// simulator events, so the whole sweep is a pure function of (config,
// seed) — byte-identical across reruns, with and without --full-solve
// (modulo solver-work counters, --ignore-solver-work), and under --shards
// (the scheduler spans the fleet, so the plan collapses and shards=N
// trivially reproduces the shards=1 timeline). The `golden` ctests gate all
// three against tests/golden/steady_state_n64.json.
//
// The third argument overrides the arrival/scheduler spec (the --arrivals
// grammar of cloud/scheduler.h). The default, "auto", scales the stream to
// the fleet: rate = n/100 req/s over a 240 s window, 25% high priority,
// concurrency max(2, n/8), capacity 2, 4 anti-affinity groups,
// least-loaded placement, preemption on.
//
// Usage: steady_state_sweep [max_n] [oversub|nonblocking] [auto|SPEC]
//                           [none|faults:SPEC] [shards] [--full-solve]
//        (defaults: 64 oversub auto none 1). --full-solve, anywhere on the
//        command line, runs the full re-solve regime.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.h"
#include "sim/fault_plan.h"

using namespace hm;
using namespace hm::bench;

namespace {

// The fig4_scale_sweep lean fleet, minus its fixed launch schedule.
cloud::ExperimentConfig steady_config(std::size_t n, bool nonblocking) {
  cloud::ExperimentConfig cfg = cloud::lean_fleet_config(nonblocking);
  cfg.num_vms = n;
  // A destination pool half the fleet size makes the capacity and
  // anti-affinity constraints bind at peak load instead of being vacuous.
  cfg.num_destinations = std::max<std::size_t>(2, n / 2);
  cfg.num_migrations = 0;  // the scheduler owns the schedule
  cfg.cluster.num_nodes = n + cfg.num_destinations + 8;
  cfg.max_sim_time = 7200.0;
  return cfg;
}

std::string default_spec(std::size_t n) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "poisson:rate=%g,until=240,hi=0.25"
                ";sched:concurrent=%zu,capacity=2,groups=4,"
                "policy=least-loaded,preempt=1",
                static_cast<double>(n) / 100.0, std::max<std::size_t>(2, n / 8));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full_solve = take_full_solve(argc, argv);
  const std::size_t max_n =
      argc > 1 ? cli::parse_number<std::size_t>("max_n", argv[1], 8, SIZE_MAX / 2) : 64;
  bool nonblocking = false;
  if (argc > 2) {
    if (std::strcmp(argv[2], "nonblocking") == 0) {
      nonblocking = true;
    } else if (std::strcmp(argv[2], "oversub") != 0) {
      std::cerr << "usage: steady_state_sweep [max_n] [oversub|nonblocking]"
                   " [auto|SPEC] [none|faults:SPEC] [shards] [--full-solve]\n";
      return 2;
    }
  }
  const std::string spec_arg = argc > 3 ? argv[3] : "auto";
  const std::string faults_arg = argc > 4 ? argv[4] : "none";
  const std::uint32_t shards =
      argc > 5 ? cli::parse_number<std::uint32_t>("shards", argv[5], 1) : 1;
  sim::FaultSpec faults;
  {
    std::string err;
    if (!sim::parse_fault_spec(faults_arg, &faults, &err)) {
      std::cerr << "steady_state_sweep: " << err << "\n";
      return 2;
    }
  }
  bool any_error = false;
  cloud::write_sweep_header(std::cout);
  bool first = true;
  for (std::size_t n = 8; n <= max_n; n *= 2) {
    const std::string spec = spec_arg == "auto" ? default_spec(n) : spec_arg;
    cloud::ExperimentConfig cfg = steady_config(n, nonblocking);
    {
      std::string err;
      if (!cloud::parse_scheduler_spec(spec, &cfg.scheduler, &err)) {
        std::cerr << "steady_state_sweep: " << err << "\n";
        return 2;
      }
    }
    cfg.faults = faults;
    cfg.shards = shards;
    cfg.cluster.network.incremental = !full_solve;
    cfg.audit = faults.churn;  // same convention as fig4_scale_sweep
    cloud::Experiment exp(std::move(cfg));
    const ExperimentResult r = exp.run();
    any_error = report_failures("steady_state_sweep", "n=" + std::to_string(n), r) || any_error;
    if (!first) std::cout << ",\n";
    first = false;
    std::cout << "  {\"vms\": " << n
              << ", \"core\": \"" << (nonblocking ? "nonblocking" : "oversub") << "\""
              << ", \"arrivals\": \"" << spec << "\"";
    if (faults.enabled()) std::cout << ", \"faults\": \"" << faults_arg << "\"";
    cloud::write_json_fields(std::cout, cloud::result_fields(), exp.config(), r);
    std::cout << "}";
    std::cerr << "steady_state: n=" << n << " wall=" << r.wall_ms << " ms, "
              << r.scheduler.requests << " requests, "
              << r.scheduler.completed << " completed, "
              << r.scheduler.preemptions << " preempted, q-p99="
              << r.scheduler.queueing_p99_s << " s\n";
  }
  std::cout << "\n]}\n";
  return any_error ? 1 : 0;
}
