// The scenario table: the paper's testbed configuration (Section 5.1) and
// every point of its Figures 3-5 and of the ablations, each named
// FIGURE/APPROACH/X. bench/paper_figures runs points by label prefix,
// figure_shape_test asserts the paper's orderings on the paper/fig3 points,
// and the scale sweeps start from lean_fleet_config.
#pragma once

#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {

/// The scale sweeps' lean fleet: paper network parameters with a 1 GiB
/// image and 1 GiB of RAM per VM under AsyncWR, so a 64-way point stays a
/// seconds-scale run, on the oversubscribed graphene-style core or a
/// non-blocking full-bisection one.
ExperimentConfig lean_fleet_config(bool nonblocking);

struct ScenarioPoint {
  std::string figure;    // "paper/fig3", "ablation/threshold", ...
  std::string approach;  // core::approach_name, or "baseline" (no migration)
  std::string x;         // the point's position on the figure's x axis
  ExperimentConfig config;

  std::string label() const { return figure + "/" + approach + "/" + x; }
};

/// Every figure and ablation point, figure by figure, in the order the
/// figures print them.
std::vector<ScenarioPoint> scenario_points();

}  // namespace hm::cloud
