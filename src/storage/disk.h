// Local disk model: a FIFO single-server queue with a fixed per-request
// access latency plus a bandwidth term. Matches the paper's testbed disks
// (SATA II, ~55 MB/s sequential). The queue is shared by everything on the
// node (guest write-back, migration push reads, pull serving), which is how
// storage migration steals I/O bandwidth from the workload.
//
// read()/write() are frameless awaitables: a request is an intrusive
// FifoStation node embedded in the awaiter (no coroutine frame, no heap
// allocation per I/O): one service timer per request, plus one zero-delay
// fast-lane handoff event when the request had to queue.
#pragma once

#include <coroutine>
#include <cstdint>

#include "sim/simulator.h"
#include "sim/sync.h"

namespace hm::storage {

struct DiskConfig {
  double rate_Bps = 55.0e6;      // sequential transfer rate
  double access_latency_s = 0.5e-3;  // per-request positioning overhead
};

class Disk {
 public:
  Disk(sim::Simulator& sim, DiskConfig cfg = {}) : sim_(sim), cfg_(cfg), station_(sim) {}
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  struct [[nodiscard]] IoAwaiter {
    Disk& d;
    double bytes;
    bool is_write;
    sim::FifoStation::Node node;

    bool await_ready() const noexcept { return bytes <= 0; }
    void await_suspend(std::coroutine_handle<> h) {
      node.service_s = d.service_time(bytes);
      node.cont = h;
      d.station_.submit(&node);
    }
    void await_resume() const noexcept {
      if (bytes > 0) d.account(bytes, is_write, node.service_s);
    }
  };

  IoAwaiter read(double bytes) noexcept { return IoAwaiter{*this, bytes, /*is_write=*/false, {}}; }
  IoAwaiter write(double bytes) noexcept { return IoAwaiter{*this, bytes, /*is_write=*/true, {}}; }

  /// Service time of one request (positioning + transfer); exposed so other
  /// frameless awaiters (ChunkStore's read path) can queue on the station
  /// directly and still account through this disk.
  double service_time(double bytes) const noexcept {
    return cfg_.access_latency_s + bytes / cfg_.rate_Bps;
  }
  sim::FifoStation& station() noexcept { return station_; }
  void account(double bytes, bool is_write, double service_s) noexcept {
    busy_s_ += service_s;
    ++requests_;
    if (is_write)
      bytes_written_ += bytes;
    else
      bytes_read_ += bytes;
  }

  const DiskConfig& config() const noexcept { return cfg_; }
  double bytes_read() const noexcept { return bytes_read_; }
  double bytes_written() const noexcept { return bytes_written_; }
  double busy_seconds() const noexcept { return busy_s_; }
  std::uint64_t requests_served() const noexcept { return requests_; }
  std::size_t queue_length() const noexcept { return station_.queue_length(); }

 private:
  sim::Simulator& sim_;
  DiskConfig cfg_;
  sim::FifoStation station_;
  double bytes_read_ = 0;
  double bytes_written_ = 0;
  double busy_s_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace hm::storage
