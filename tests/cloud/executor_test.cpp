// The one fan-out (cloud/executor.h): every (point, slice) task runs exactly
// once, on at most W workers (W = 1: the caller alone), a slice that trips
// skips only the higher slices of its own point, so the trip a point
// settles with does not depend on timing, and a task's exception reaches
// the caller. The TSan job runs these.
#include "cloud/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hm::cloud {
namespace {

/// Per-task hit counters and per-point settle records of one fan_out call.
struct Record {
  explicit Record(const std::vector<std::uint32_t>& slices) : settles(slices.size()) {
    for (std::uint32_t n : slices) hits.emplace_back(n);
  }
  std::vector<std::vector<std::atomic<int>>> hits;
  std::vector<std::atomic<int>> settles;
  std::vector<std::uint32_t> trips = std::vector<std::uint32_t>(settles.size(), 0);
  std::mutex mu;
  std::set<std::thread::id> threads;

  void ran(std::size_t p, std::uint32_t s) {
    hits[p][s].fetch_add(1);
    std::lock_guard<std::mutex> lk(mu);
    threads.insert(std::this_thread::get_id());
  }
  void settled(std::size_t p, std::uint32_t trip) {
    settles[p].fetch_add(1);
    trips[p] = trip;
  }
};

TEST(FanOut, EveryTaskRunsExactlyOnceAndEveryPointSettlesOnce) {
  const std::vector<std::uint32_t> slices = {3, 0, 1, 7, 2};
  for (unsigned workers : {0u, 1u, 2u, 4u, 64u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Record rec(slices);
    fan_out(
        slices, workers,
        [&](std::size_t p, std::uint32_t s) {
          rec.ran(p, s);
          return false;
        },
        [&](std::size_t p, std::uint32_t trip) {
          // Every slice of the point has run before it settles.
          for (const std::atomic<int>& h : rec.hits[p]) EXPECT_EQ(h.load(), 1);
          rec.settled(p, trip);
        });
    for (std::size_t p = 0; p < slices.size(); ++p) {
      EXPECT_EQ(rec.settles[p].load(), 1) << "point " << p;
      EXPECT_EQ(rec.trips[p], slices[p]) << "point " << p;  // nothing tripped
      for (const std::atomic<int>& h : rec.hits[p]) EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(FanOut, NeverUsesMoreThanItsWorkers) {
  // W = min(requested, hardware threads, tasks), the caller included.
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  const std::vector<std::uint32_t> slices = {4, 5};
  for (unsigned workers : {1u, 2u, 3u, 64u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    Record rec(slices);
    const unsigned used = fan_out(
        slices, workers,
        [&](std::size_t p, std::uint32_t s) {
          rec.ran(p, s);
          return false;
        },
        [&](std::size_t p, std::uint32_t trip) { rec.settled(p, trip); });
    EXPECT_EQ(used, std::min({workers, hw, 9u}));
    EXPECT_GE(rec.threads.size(), 1u);
    EXPECT_LE(rec.threads.size(), used);
  }
  // Never more workers than tasks.
  EXPECT_EQ(fan_out({1}, 8, [](std::size_t, std::uint32_t) { return false; },
                    [](std::size_t, std::uint32_t) {}),
            1u);
}

TEST(FanOut, OneWorkerRunsEveryTaskInOrderOnTheCaller) {
  const std::vector<std::uint32_t> slices = {2, 3, 1};
  std::vector<std::pair<std::size_t, std::uint32_t>> order;
  std::vector<std::size_t> settled;
  const std::thread::id caller = std::this_thread::get_id();
  fan_out(
      slices, 1,
      [&](std::size_t p, std::uint32_t s) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.emplace_back(p, s);
        return false;
      },
      [&](std::size_t p, std::uint32_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        settled.push_back(p);
      });
  const std::vector<std::pair<std::size_t, std::uint32_t>> want = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(order, want);
  EXPECT_EQ(settled, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(FanOut, ATripSkipsOnlyHigherSlicesOfItsPoint) {
  // Point 1's slices 3 and 5 trip. Its slices 0..3 always run (no lower
  // slice tripped when they were claimed); a slice above 3 may run only if
  // it was claimed before slice 3 tripped. On one worker nothing above 3
  // runs. Points 0 and 2 run every slice, and point 1 always settles with
  // trip 3 whatever the timing.
  const std::vector<std::uint32_t> slices = {5, 12, 6};
  for (unsigned workers : {1u, 4u}) {
    for (int round = 0; round < 20; ++round) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " round " + std::to_string(round));
      Record rec(slices);
      fan_out(
          slices, workers,
          [&](std::size_t p, std::uint32_t s) {
            rec.ran(p, s);
            return p == 1 && (s == 3 || s == 5);
          },
          [&](std::size_t p, std::uint32_t trip) { rec.settled(p, trip); });
      for (std::size_t p : {0u, 2u}) {
        EXPECT_EQ(rec.trips[p], slices[p]);
        for (const std::atomic<int>& h : rec.hits[p]) EXPECT_EQ(h.load(), 1);
      }
      EXPECT_EQ(rec.settles[1].load(), 1);
      EXPECT_EQ(rec.trips[1], 3u);
      for (std::uint32_t s = 0; s <= 3; ++s) EXPECT_EQ(rec.hits[1][s].load(), 1) << s;
      for (std::uint32_t s = 4; s < slices[1]; ++s) {
        EXPECT_LE(rec.hits[1][s].load(), 1) << s;
        if (workers == 1) EXPECT_EQ(rec.hits[1][s].load(), 0) << s;
      }
    }
  }
}

TEST(FanOut, AnExceptionStopsClaimsAndReachesTheCaller) {
  // Slice 2 of 40 throws: the caller sees the exception once every worker
  // is joined, and the point never settles. On one worker nothing after
  // slice 2 runs.
  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::atomic<int> ran{0};
    EXPECT_THROW(fan_out(
                     {40}, workers,
                     [&](std::size_t, std::uint32_t s) {
                       ran.fetch_add(1);
                       if (s == 2) throw std::runtime_error("slice 2");
                       return false;
                     },
                     [](std::size_t, std::uint32_t) { ADD_FAILURE() << "settled"; }),
                 std::runtime_error);
    if (workers == 1) EXPECT_EQ(ran.load(), 3);
  }
}

}  // namespace
}  // namespace hm::cloud
