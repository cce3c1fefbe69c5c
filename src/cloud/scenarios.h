// The scenario table: the paper's testbed configuration (Section 5.1), every
// point of its Figures 3-5 and of the ablations, and the engine-scale
// families (scale/REGIME and steady/oversub, X = the number of VMs), each
// point named FIGURE/APPROACH/X. bench/paper_figures runs points by label
// prefix, the golden ctests gate them by label, and figure_shape_test
// asserts the paper's orderings on the paper/fig3 points.
#pragma once

#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {

struct ScenarioPoint {
  std::string figure;    // "paper/fig3", "ablation/threshold", ...
  std::string approach;  // core::approach_name, or "baseline" (no migration)
  std::string x;         // the point's position on the figure's x axis
  ExperimentConfig config;

  std::string label() const { return figure + "/" + approach + "/" + x; }
};

/// Every point, figure by figure, in the order the figures print them.
std::vector<ScenarioPoint> scenario_points();

}  // namespace hm::cloud
