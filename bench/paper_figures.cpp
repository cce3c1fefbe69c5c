// The sweep driver: runs the scenario-table points (cloud/scenarios.h) whose
// label FIGURE/APPROACH/X lies under one of the given prefixes, or every
// point with none, and emits one JSON row per point after the field-class
// map of cloud/report.h's result-field table: label, figure, approach and
// x, then every field. The points cover the paper's Figures 3-5, the
// ablations and the engine-scale families (scale/..., steady/oversub).
// tools/render_figures.py prints the figure panels from it.
//
// A prefix matches whole '/'-separated label components: "paper/fig4"
// selects Figure 4, "paper/fig5/mirror" its mirror points, and
// "paper/fig4/postcopy/1" one point (not ".../10"). A prefix that matches
// no point lists the figures and exits 2.
//
// Two options apply to every chosen point:
//   --shards=N    run the sweep on N workers (default: one per hardware
//                 thread, and never more). Every slice of every point (one
//                 small simulator per independent component,
//                 cloud/shard_plan.h) is a task of one work queue, so a
//                 lone label fans its slices over the workers too. N != 1
//                 also prints each row's shard fields. The slices do not
//                 depend on N, so every field but the wall and shard fields
//                 matches the shards=1 run exactly: check_sweep_golden.py
//                 --shards.
//   --full-solve  re-solve every flow component each settle epoch
//                 (FlowNetworkConfig::incremental = false), which must
//                 reproduce the incremental timeline up to the solver-work
//                 counters: check_sweep_golden.py --ignore-solver-work.
// A malformed option exits 2 with a diagnostic. The exit status is 1 if
// any point reports an error or an audit violation.
//
// Usage: paper_figures [--shards=N] [--full-solve] [PREFIX...]
#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cli_args.h"
#include "cloud/report.h"
#include "cloud/scenarios.h"
#include "cloud/sweep.h"

using namespace hm;

namespace {

bool under(const std::string& label, const std::string& prefix) {
  return label.starts_with(prefix) &&
         (label.size() == prefix.size() || label[prefix.size()] == '/');
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> prefixes;
  std::uint32_t shards = 0;  // 0: not given, one worker per hardware thread
  bool full_solve = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.starts_with("--shards=")) {
      shards = cli::parse_number<std::uint32_t>("--shards", arg.substr(9), 1);
    } else if (arg == "--full-solve") {
      full_solve = true;
    } else if (arg.starts_with("--")) {
      std::cerr << "paper_figures: unknown option '" << arg
                << "'\nusage: paper_figures [--shards=N] [--full-solve] [PREFIX...]\n";
      return 2;
    } else {
      prefixes.push_back(arg);
    }
  }

  std::vector<cloud::ScenarioPoint> points = cloud::scenario_points();
  for (const std::string& prefix : prefixes) {
    if (std::none_of(points.begin(), points.end(),
                     [&](const auto& p) { return under(p.label(), prefix); })) {
      std::cerr << "paper_figures: no point under '" << prefix << "'; the figures are:\n";
      for (std::size_t i = 0; i < points.size(); ++i)  // the table is figure by figure
        if (i == 0 || points[i].figure != points[i - 1].figure)
          std::cerr << "  " << points[i].figure << "\n";
      return 2;
    }
  }

  if (!prefixes.empty())
    std::erase_if(points, [&](const cloud::ScenarioPoint& p) {
      return std::none_of(prefixes.begin(), prefixes.end(),
                          [&](const std::string& prefix) { return under(p.label(), prefix); });
    });
  std::vector<cloud::SweepItem> items;
  for (cloud::ScenarioPoint& p : points) {
    p.config.shards = std::max(shards, 1u);
    if (full_solve) p.config.cluster.network.incremental = false;
    items.push_back({p.label(), p.config});
  }
  std::cerr << "paper_figures: running " << items.size() << " points...\n";
  const std::vector<cloud::ExperimentResult> results = cloud::run_sweep(items, shards);

  // Full precision, so the renderer's panels match C printf of the results.
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  cloud::write_sweep_header(std::cout);
  bool any_error = false;
  for (std::size_t i = 0; i < points.size(); ++i) {
    // A failed point keeps the JSON well-formed; the exit status reports it.
    const cloud::ScenarioPoint& p = points[i];
    const cloud::ExperimentResult& r = results[i];
    const std::string& label = items[i].label;
    if (!r.error.empty()) std::cerr << "paper_figures: " << label << ": " << r.error << "\n";
    for (const std::string& v : r.audit_violations)
      std::cerr << "paper_figures: " << label << " AUDIT VIOLATION: " << v << "\n";
    any_error = any_error || !r.error.empty() || !r.audit_violations.empty();
    std::cout << (i ? ",\n" : "") << "  {\"label\": \"" << label
              << "\", \"figure\": \"" << p.figure << "\", \"approach\": \"" << p.approach
              << "\", \"x\": \"" << p.x << "\"";
    cloud::write_json_fields(std::cout, p.config, r);
    std::cout << "}";
  }
  std::cout << "\n]}\n";
  return any_error ? 1 : 0;
}
