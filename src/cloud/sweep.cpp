#include "cloud/sweep.h"

#include "cloud/shard_plan.h"

namespace hm::cloud {

std::vector<ExperimentResult> run_sweep(const std::vector<SweepItem>& items,
                                        unsigned workers) {
  std::vector<Experiment> exps;
  std::vector<ShardPlan> plans;
  exps.reserve(items.size());
  plans.reserve(items.size());
  for (const SweepItem& item : items)
    plans.push_back(plan_shards(exps.emplace_back(item.config).config()));
  return Experiment::run_all(exps, plans, workers);
}

}  // namespace hm::cloud
