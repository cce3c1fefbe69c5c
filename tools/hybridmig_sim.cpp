// hybridmig_sim — command-line experiment runner.
//
// Runs one live-migration experiment with configurable approach, workload
// and scale, printing each active field of cloud/report.h's table. Examples:
//
//   hybridmig_sim --approach=our-approach --workload=ior
//   hybridmig_sim --approach=precopy --workload=asyncwr --migrations=4
//   hybridmig_sim --approach=pvfs-shared --workload=cm1 --grid=4x4
//   hybridmig_sim --list
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "cloud/experiment.h"
#include "cloud/fault_injector.h"
#include "cloud/report.h"
#include "cli_args.h"

using namespace hm;
using cli::parse_number;

namespace {

void usage() {
  std::cout <<
      "hybridmig_sim — hybrid local storage transfer simulation (HPDC'12)\n"
      "\n"
      "  --approach=NAME     our-approach | mirror | postcopy | precopy | pvfs-shared\n"
      "  --workload=NAME     ior | asyncwr | cm1 | none | trace:SPEC\n"
      "                      (trace:zipf|phase|burst|scan[:k=v,...] generates a\n"
      "                       stream; trace:file=PATH replays a recorded trace)\n"
      "  --record-trace=PATH capture this run's workload stream into a trace file\n"
      "  --vms=N             number of source VMs (default 1; cm1 uses grid)\n"
      "  --migrations=N      how many VMs to migrate (default 1)\n"
      "  --destinations=N    destination nodes (default = migrations)\n"
      "  --migrate-at=SEC    first migration initiation time (default 100)\n"
      "  --interval=SEC      delay between successive migrations (default 0)\n"
      "  --arrivals=SPEC     continuous-arrival scheduler (replaces the fixed\n"
      "                      schedule; --migrations is ignored):\n"
      "                      poisson:rate=R,until=T[,from=T,count=N,hi=F] |\n"
      "                      diurnal:base=R,amp=F,period=T[,phase=T,...] |\n"
      "                      trace:T1,T2,...[,hi=F]; optionally followed by\n"
      "                      ';sched:concurrent=N,capacity=N,groups=N,\n"
      "                      policy=round-robin|least-loaded,preempt=0|1,\n"
      "                      attempts=N'\n"
      "  --threshold=N       hybrid write-count threshold (default 3)\n"
      "  --chunk-kib=N       chunk/stripe size in KiB (default 256)\n"
      "  --grid=XxY          cm1 rank grid (default 8x8)\n"
      "  --iterations=N      workload iterations (ior default 30, asyncwr 1800)\n"
      "  --faults=SPEC       inject faults: scripted events\n"
      "                      (KIND@T[+DUR][*FACTOR][#TARGET] joined by ';',\n"
      "                       KIND = src-crash|dst-crash|degrade|flap|slow-recv|\n"
      "                       repo-outage|node-crash|node-degrade|node-flap|\n"
      "                       domain-crash|domain-degrade), seeded draws\n"
      "                      (rand:crashes=N,degrades=N,...,from=T,span=T,dur=T)\n"
      "                      or a continuous churn process\n"
      "                      (churn:crash-mtbf=T,crash-mttr=T,degrade-mtbf=T,...,\n"
      "                       domain-mtbf=T,factor=F,from=T,until=T,nodes=N).\n"
      "                      Any form may end with ';domains:NAME=LO-HI+N,...'\n"
      "                      defining correlated failure domains (racks)\n"
      "  --explain-faults    print the resolved fault timeline / churn process\n"
      "                      parameters for this config and exit\n"
      "  --audit             run the virtual-time watchdog/invariant auditor\n"
      "                      (liveness + chunk conservation; violations fail\n"
      "                      the run)\n"
      "  --seed=N            RNG seed (default 42)\n"
      "  --baseline          disable migrations (reference run)\n"
      "  --list              print the approach summary (paper Table 1)\n";
}

std::optional<std::string> arg_value(const char* arg, const char* key) {
  const std::size_t klen = std::strlen(key);
  if (std::strncmp(arg, key, klen) == 0 && arg[klen] == '=')
    return std::string(arg + klen + 1);
  return std::nullopt;
}

std::optional<core::Approach> parse_approach(const std::string& s) {
  for (core::Approach a :
       {core::Approach::kHybrid, core::Approach::kMirror, core::Approach::kPostcopy,
        core::Approach::kPrecopy, core::Approach::kPvfsShared}) {
    if (s == core::approach_name(a)) return a;
  }
  if (s == "hybrid") return core::Approach::kHybrid;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  cloud::ExperimentConfig cfg;
  cfg.cluster.num_nodes = 40;
  cfg.workload = cloud::WorkloadKind::kIor;
  cfg.ior.iterations = 30;
  cfg.ior.file_offset = storage::kGiB;
  cfg.asyncwr.file_offset = storage::kGiB;
  cfg.max_sim_time = 7200.0;
  bool explicit_dests = false;
  bool explain_faults = false;
  int iterations = -1;
  std::string record_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage();
      return 0;
    }
    if (std::strcmp(arg, "--list") == 0) {
      cloud::print_table1(std::cout);
      return 0;
    }
    if (std::strcmp(arg, "--baseline") == 0) {
      cfg.perform_migrations = false;
      continue;
    }
    if (auto v = arg_value(arg, "--approach")) {
      auto a = parse_approach(*v);
      if (!a) {
        std::cerr << "unknown approach: " << *v << "\n";
        return 2;
      }
      cfg.approach = *a;
      continue;
    }
    if (auto v = arg_value(arg, "--workload")) {
      if (*v == "ior") cfg.workload = cloud::WorkloadKind::kIor;
      else if (*v == "asyncwr") cfg.workload = cloud::WorkloadKind::kAsyncWr;
      else if (*v == "cm1") cfg.workload = cloud::WorkloadKind::kCm1;
      else if (*v == "none") cfg.workload = cloud::WorkloadKind::kNone;
      else if (v->rfind("trace:", 0) == 0 || *v == "trace") {
        cfg.workload = cloud::WorkloadKind::kTrace;
        std::string err;
        if (*v != "trace" && !workloads::parse_trace_spec(*v, &cfg.trace, &err)) {
          std::cerr << err << "\n";
          return 2;
        }
      } else {
        std::cerr << "unknown workload: " << *v << "\n";
        return 2;
      }
      continue;
    }
    if (auto v = arg_value(arg, "--record-trace")) {
      record_path = *v;
      continue;
    }
    if (auto v = arg_value(arg, "--vms")) {
      cfg.num_vms = parse_number<std::size_t>("--vms", *v);
      continue;
    }
    if (auto v = arg_value(arg, "--migrations")) {
      cfg.num_migrations = parse_number<std::size_t>("--migrations", *v);
      if (!explicit_dests) cfg.num_destinations = cfg.num_migrations;
      continue;
    }
    if (auto v = arg_value(arg, "--destinations")) {
      cfg.num_destinations = parse_number<std::size_t>("--destinations", *v);
      explicit_dests = true;
      continue;
    }
    if (auto v = arg_value(arg, "--migrate-at")) {
      cfg.first_migration_at = parse_number<double>("--migrate-at", *v);
      continue;
    }
    if (auto v = arg_value(arg, "--interval")) {
      cfg.migration_interval_s = parse_number<double>("--interval", *v);
      continue;
    }
    if (auto v = arg_value(arg, "--arrivals")) {
      std::string err;
      if (!cloud::parse_scheduler_spec(*v, &cfg.scheduler, &err)) {
        std::cerr << err << "\n";
        return 2;
      }
      continue;
    }
    if (auto v = arg_value(arg, "--threshold")) {
      cfg.approach_cfg.hybrid.threshold = parse_number<std::uint32_t>("--threshold", *v);
      continue;
    }
    if (auto v = arg_value(arg, "--chunk-kib")) {
      cfg.cluster.image.chunk_bytes =
          parse_number<std::uint32_t>("--chunk-kib", *v, 1, UINT32_MAX / 1024) * 1024;
      continue;
    }
    if (auto v = arg_value(arg, "--grid")) {
      const auto x = v->find('x');
      if (x == std::string::npos) {
        std::cerr << "--grid expects XxY\n";
        return 2;
      }
      // 32767 per side keeps the rank count grid_x * grid_y inside an int.
      cfg.cm1.grid_x = parse_number<int>("--grid", v->substr(0, x), 1, 32767);
      cfg.cm1.grid_y = parse_number<int>("--grid", v->substr(x + 1), 1, 32767);
      continue;
    }
    if (auto v = arg_value(arg, "--iterations")) {
      iterations = parse_number<int>("--iterations", *v);
      continue;
    }
    if (auto v = arg_value(arg, "--faults")) {
      std::string err;
      if (!sim::parse_fault_spec(*v, &cfg.faults, &err)) {
        std::cerr << err << "\n";
        return 2;
      }
      continue;
    }
    if (std::strcmp(arg, "--explain-faults") == 0) {
      explain_faults = true;
      continue;
    }
    if (std::strcmp(arg, "--audit") == 0) {
      cfg.audit = true;
      continue;
    }
    if (auto v = arg_value(arg, "--seed")) {
      cfg.seed = parse_number<std::uint64_t>("--seed", *v);
      continue;
    }
    std::cerr << "unknown argument: " << arg << " (try --help)\n";
    return 2;
  }
  if (iterations > 0) {
    cfg.ior.iterations = iterations;
    cfg.asyncwr.iterations = iterations;
    cfg.cm1.num_outputs = iterations;
  }
  if (cfg.workload == cloud::WorkloadKind::kCm1 &&
      cfg.cluster.num_nodes < static_cast<std::size_t>(cfg.cm1.ranks()) + 8) {
    cfg.cluster.num_nodes = static_cast<std::size_t>(cfg.cm1.ranks()) + 8;
  }

  if (explain_faults) {
    cloud::ExperimentConfig planned = cfg;
    planned.normalize();
    if (!planned.faults.enabled()) {
      std::cout << "fault plan: none\n";
      return 0;
    }
    // Cluster seeds its RNG as Rng(cfg.seed), so a fresh Rng reproduces the
    // exact plan the run would arm.
    const sim::FaultSpec& spec = planned.faults;
    const std::vector<sim::FaultEvent> events = sim::build_fault_plan(
        spec, sim::Rng(planned.seed), static_cast<std::uint32_t>(planned.num_migrations));
    const auto describe = [&](const sim::FaultEvent& ev) -> std::string {
      std::string nodes;
      for (const net::NodeId n : cloud::fault_nodes(planned, ev)) nodes += " " + std::to_string(n);
      const std::string k = std::to_string(cloud::fault_migration(planned, ev));
      switch (sim::fault_kind_info(ev.kind).scope) {
        case sim::FaultScope::kMigrationSource:
          return "node" + nodes + " (migration #" + k + " source)";
        case sim::FaultScope::kMigrationDest:
          return "node" + nodes + " (migration #" + k + " destination)";
        case sim::FaultScope::kNode:
          return "node" + nodes;
        case sim::FaultScope::kDomain:
          return "domain '" + spec.domains[ev.target].name + "' (nodes" + nodes + ")";
        case sim::FaultScope::kRepository:
          break;
      }
      return "repository (all stripes)";
    };
    std::cout << "fault plan: " << events.size() << " scripted event"
              << (events.size() == 1 ? "" : "s") << (spec.churn ? " + churn process" : "")
              << "\n";
    for (const sim::FaultEvent& ev : events) {
      std::printf("  t=%9.3fs %-13s dur=%7.3fs factor=%.3f -> %s\n", ev.at,
                  sim::fault_kind_info(ev.kind).name, ev.duration_s, ev.factor,
                  describe(ev).c_str());
    }
    if (spec.churn) {
      const sim::FaultChurnSpec& cs = spec.churn_spec;
      std::cout << "churn process: " << cloud::churn_node_count(planned) << " node(s), window ["
                << cloud::fmt_double(cs.from, 1) << "s, "
                << (cs.until > 0 ? cloud::fmt_double(cs.until, 1) + "s" : "inf")
                << "), degrade factor " << cloud::fmt_double(cs.factor, 3) << "\n";
      if (cs.crash_mtbf > 0)
        std::cout << "  node-crash:   mtbf=" << cloud::fmt_double(cs.crash_mtbf, 1)
                  << "s mttr=" << cloud::fmt_double(cs.crash_mttr, 1) << "s\n";
      if (cs.degrade_mtbf > 0)
        std::cout << "  node-degrade: mtbf=" << cloud::fmt_double(cs.degrade_mtbf, 1)
                  << "s mttr=" << cloud::fmt_double(cs.degrade_mttr, 1) << "s\n";
      if (cs.flap_mtbf > 0)
        std::cout << "  node-flap:    mtbf=" << cloud::fmt_double(cs.flap_mtbf, 1)
                  << "s mttr=" << cloud::fmt_double(cs.flap_mttr, 1) << "s\n";
      if (cs.domain_mtbf > 0)
        std::cout << "  domain-crash: mtbf=" << cloud::fmt_double(cs.domain_mtbf, 1)
                  << "s mttr=" << cloud::fmt_double(cs.domain_mttr, 1) << "s over "
                  << spec.domains.size() << " domain(s)\n";
    }
    if (!spec.domains.empty()) {
      std::cout << "failure domains:\n";
      for (const sim::FaultDomain& dom : spec.domains) {
        std::cout << "  " << dom.name << ":";
        for (const auto n : dom.nodes) std::cout << " " << n;
        std::cout << "\n";
      }
    }
    return 0;
  }

  // Recording observes every VM's workload-API calls; the file is written
  // once the run is over, unless the run reported an error.
  std::optional<workloads::TraceRecorder> recorder;
  if (!record_path.empty()) {
    workloads::TraceHeader hdr;
    hdr.page_bytes = cfg.vm.memory.page_bytes;
    hdr.chunk_bytes = cfg.cluster.image.chunk_bytes;
    hdr.pages = (cfg.vm.memory.ram_bytes + cfg.vm.memory.page_bytes - 1) /
                cfg.vm.memory.page_bytes;
    hdr.chunks = cfg.cluster.image.num_chunks();
    hdr.name = std::string("rec:") + cloud::workload_name(cfg.workload);
    recorder.emplace(hdr);
    cfg.trace_recorder = &*recorder;
  }

  cloud::Experiment exp(std::move(cfg));
  // The header describes the normalized config, which is what runs (a CM1
  // grid sets the VM count; migrations are capped at the VM count).
  const cloud::ExperimentConfig& ran = exp.config();
  std::cout << "approach=" << core::approach_name(ran.approach)
            << " workload=" << cloud::workload_name(ran.workload) << " vms=" << ran.num_vms;
  if (ran.perform_migrations && ran.scheduler.enabled())
    std::cout << " arrivals=" << sim::arrival_kind_name(ran.scheduler.arrivals.kind);
  else
    std::cout << " migrations=" << (ran.perform_migrations ? ran.num_migrations : 0);
  std::cout << "\n";
  const cloud::ExperimentResult res = exp.run();
  if (recorder && res.error.empty()) {
    std::string err;
    if (!workloads::write_trace(record_path, recorder->data(), &err)) {
      std::cerr << "error: " << err << "\n";
      return 1;
    }
  }
  for (const std::string& v : res.audit_violations)
    std::cerr << "audit violation: " << v << "\n";
  std::cout << "\n";
  for (const cloud::ResultField& f : cloud::result_fields())
    if (cloud::field_active(f, exp.config(), res))
      std::cout << f.name << ": " << f.get(res) << "\n";
  return (res.completed && res.audit_violations.empty()) ? 0 : 1;
}
