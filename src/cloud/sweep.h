// Parameter-sweep runner. Each experiment is independent, and so is each
// slice of one (cloud/shard_plan.h), so a sweep is one fan-out
// (cloud/executor.h): every (point, slice) pair is a task of one work
// queue, each point merges its own slices, and the results land in input
// order.
#pragma once

#include <string>
#include <vector>

#include "cloud/experiment.h"

namespace hm::cloud {

struct SweepItem {
  std::string label;
  ExperimentConfig config;
};

/// Run all experiments on `workers` workers, the caller included (0 = one
/// per hardware thread; never more than the hardware threads). Each
/// point's result equals its lone Experiment::run() in every field but
/// wall_ms; the points' cfg.shards are not read here. Results are returned
/// in input order.
std::vector<ExperimentResult> run_sweep(const std::vector<SweepItem>& items,
                                        unsigned workers = 0);

}  // namespace hm::cloud
