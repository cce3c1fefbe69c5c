// The paper's Figures 3-5 and the ablations: runs the scenario-table points
// (cloud/scenarios.h) whose label FIGURE/APPROACH/X lies under one of the
// given prefixes, or every point with none, and emits one JSON row per
// point after the field-class map of cloud/report.h's result-field table:
// label, figure, approach and x, then every field, the paper metrics
// included. tools/render_figures.py prints the figure panels from it.
//
// A prefix matches whole '/'-separated label components: "paper/fig4"
// selects Figure 4, "paper/fig5/mirror" its mirror points, and
// "paper/fig4/postcopy/1" one point (not ".../10"). A prefix that matches
// no point lists the figures and exits 2.
//
// Usage: paper_figures [PREFIX...]
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"

using namespace hm;
using namespace hm::bench;

namespace {

bool under(const std::string& label, const std::string& prefix) {
  return label.starts_with(prefix) &&
         (label.size() == prefix.size() || label[prefix.size()] == '/');
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> prefixes(argv + 1, argv + argc);
  const std::vector<cloud::ScenarioPoint> points = cloud::scenario_points();
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

  std::vector<const cloud::ScenarioPoint*> chosen;
  std::vector<cloud::SweepItem> items;
  for (const cloud::ScenarioPoint& p : points) {
    if (!prefixes.empty() &&
        std::none_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& prefix) { return under(p.label(), prefix); }))
      continue;
    chosen.push_back(&p);
    items.push_back({p.label(), p.config});
  }
  std::cerr << "paper_figures: running " << items.size() << " points...\n";
  const std::vector<ExperimentResult> results = cloud::run_sweep(items);

  // Full precision, so the renderer's panels match C printf of the results.
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  cloud::write_sweep_header(std::cout);
  bool any_error = false;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const cloud::ScenarioPoint& p = *chosen[i];
    any_error = report_failures("paper_figures", items[i].label, results[i]) || any_error;
    std::cout << (i ? ",\n" : "") << "  {\"label\": \"" << items[i].label
              << "\", \"figure\": \"" << p.figure << "\", \"approach\": \"" << p.approach
              << "\", \"x\": \"" << p.x << "\"";
    cloud::write_json_fields(std::cout, cloud::result_fields(), p.config, results[i],
                             /*detail=*/true);
    std::cout << "}";
  }
  std::cout << "\n]}\n";
  return any_error ? 1 : 0;
}
