#include "cloud/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace hm::cloud {

unsigned fan_out(const std::vector<std::uint32_t>& slices, unsigned workers,
                 const std::function<bool(std::size_t, std::uint32_t)>& slice,
                 const std::function<void(std::size_t, std::uint32_t)>& settle) {
  struct Point {
    std::atomic<std::uint32_t> trip;     // lowest tripped slice so far
    std::atomic<std::uint32_t> pending;  // slices not yet run or skipped
  };
  std::vector<Point> points(slices.size());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tasks;  // (point, slice)
  for (std::size_t p = 0; p < slices.size(); ++p) {
    points[p].trip = slices[p];
    points[p].pending = slices[p];
    if (slices[p] == 0) settle(p, 0);
    for (std::uint32_t s = 0; s < slices[p]; ++s)
      tasks.emplace_back(static_cast<std::uint32_t>(p), s);
  }

  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;  // the first exception a task threw
  const auto work = [&] {
    try {
      for (std::size_t i; (i = next++) < tasks.size();) {
        const auto [p, s] = tasks[i];
        Point& pt = points[p];
        if (s < pt.trip && slice(p, s)) {
          std::uint32_t low = pt.trip;
          while (s < low && !pt.trip.compare_exchange_weak(low, s)) {
          }
        }
        // The last countdown sees every slice's writes and trip.
        if (--pt.pending == 0) settle(p, pt.trip);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lk(failure_mu);
      if (!failure) failure = std::current_exception();
      next = tasks.size();  // claim nothing more
    }
  };

  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  if (workers == 0 || workers > hw) workers = hw;
  workers = static_cast<unsigned>(std::clamp<std::size_t>(tasks.size(), 1, workers));
  {
    std::vector<std::jthread> pool;  // joins on every way out of this scope
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) pool.emplace_back(work);
    work();  // the caller is worker 0
  }
  if (failure) std::rethrow_exception(failure);
  return workers;
}

}  // namespace hm::cloud
