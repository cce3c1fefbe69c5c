#include "cloud/scenarios.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace hm::cloud {
namespace {

// A label names one point: paper_figures selects by it and the golden
// checker keys rows by it.
TEST(ScenarioTable, EveryLabelIsUnique) {
  std::set<std::string> labels;
  for (const ScenarioPoint& p : scenario_points())
    EXPECT_TRUE(labels.insert(p.label()).second) << "duplicate label " << p.label();
  EXPECT_FALSE(labels.empty());
}

}  // namespace
}  // namespace hm::cloud
