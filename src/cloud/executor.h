// The one fan-out behind Experiment::run and run_sweep.
//
// A fan-out is a list of points, each a list of independent slices
// (cloud/shard_plan.h). Every (point, slice) pair is one task, and W
// workers claim the tasks in ascending (point, slice) order from one
// counter: the caller plus W - 1 threads, W = min(requested, hardware
// threads, tasks). A task runs to completion on the thread that claimed it,
// because a simulation's coroutine frames come from that thread's FramePool
// (sim/frame_pool.h). Results never depend on W; only wall-clock does.
//
// A slice that trips a runtime guard marks its point: a later claim of a
// higher slice of that point is skipped, a lower one still runs. Claims
// ascend, so a point's lowest tripped slice always runs and the guard it
// reports does not depend on timing. The worker that runs or skips a
// point's last outstanding slice settles the point (its merge, or its
// whole-fleet rerun) before it claims its next task.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace hm::cloud {

/// Runs slice(p, s) for every point p and every s < slices[p], then
/// settle(p, trip) once per point, where `trip` is the lowest slice of p
/// whose slice() returned true, or slices[p] when none did. A point with no
/// slices is settled on the caller before any task runs. `workers` = 0 asks
/// for one per hardware thread. Returns W, the workers used (the caller
/// included). An exception from slice() or settle() stops further claims
/// and is rethrown here once every worker has stopped.
unsigned fan_out(const std::vector<std::uint32_t>& slices, unsigned workers,
                 const std::function<bool(std::size_t point, std::uint32_t slice)>& slice,
                 const std::function<void(std::size_t point, std::uint32_t trip)>& settle);

}  // namespace hm::cloud
