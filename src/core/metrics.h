// Metrics collected during experiments: the three quantities the paper's
// evaluation section is built on (Section 2) — migration time, network
// traffic, and impact on application performance — plus supporting detail
// (downtime, rounds, per-VM I/O throughput, compute counters).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/flow_network.h"

namespace hm::core {

/// The five compared approaches (Table 1 of the paper).
enum class Approach : std::uint8_t {
  kHybrid,      // our-approach: active push + prioritized prefetch
  kMirror,      // synchronous dual writes at src and dest
  kPostcopy,    // pull everything after control transfer
  kPrecopy,     // QEMU-style incremental block migration
  kPvfsShared,  // no storage transfer; all I/O through PVFS
};
const char* approach_name(Approach a) noexcept;
/// "Local storage transfer strategy" column of Table 1.
const char* approach_strategy_summary(Approach a) noexcept;

/// One live migration, from MIGRATION_REQUEST to source release.
struct MigrationRecord {
  int vm_id = -1;
  double t_request = 0;           // migration initiated on the source
  double t_control_transfer = 0;  // VM resumed on the destination
  double t_source_released = 0;   // no residual dependency on the source
  double downtime_s = 0;          // VM paused during stop-and-copy
  int memory_rounds = 0;
  double memory_bytes_sent = 0;
  double storage_chunks_pushed = 0;  // active phase transfers
  double storage_chunks_pulled = 0;  // passive phase transfers

  // --- fault/recovery accounting (fault-injection axis) ---------------------
  int retries = 0;                  // aborted attempts before this one
  double retransferred_bytes = 0;   // work thrown away by aborted attempts
  double salvaged_chunks = 0;       // chunks adopted from partial replicas
  double t_first_abort = 0;         // first fault-induced abort (0 = none)
  bool abandoned = false;           // gave up after max_attempts

  bool operator==(const MigrationRecord&) const = default;

  /// Paper definition: "time elapsed between the moment when the migration
  /// has been initiated and the source has been relinquished".
  double migration_time() const noexcept { return t_source_released - t_request; }

  /// Fault to re-established control transfer; 0 when no fault hit this
  /// migration (or it never completed).
  double time_to_recover() const noexcept {
    return (t_first_abort > 0 && t_control_transfer > t_first_abort)
               ? t_control_transfer - t_first_abort
               : 0;
  }

  /// Residual-dependency window: time during which the VM already runs on
  /// the destination but still depends on the source for disk state. Zero
  /// for precopy/mirror/pvfs-shared — the "perceived higher safety" of I/O
  /// pre-copy the paper's conclusion debates (a source failure inside this
  /// window is fatal for pull-based schemes).
  double dependency_window() const noexcept {
    return t_source_released - t_control_transfer;
  }
};

/// Per-VM workload I/O accounting (wall time spent inside file ops).
struct IoStats {
  double bytes_written = 0;
  double bytes_read = 0;
  double write_time_s = 0;
  double read_time_s = 0;

  double write_Bps() const noexcept { return write_time_s > 0 ? bytes_written / write_time_s : 0; }
  double read_Bps() const noexcept { return read_time_s > 0 ? bytes_read / read_time_s : 0; }
};

class Metrics {
 public:
  /// The returned reference stays valid for the lifetime of the Metrics
  /// object (deque storage: push_back never moves existing records) —
  /// sessions and the hypervisor hold it across suspension points.
  MigrationRecord& new_migration(int vm_id) {
    migrations_.push_back(MigrationRecord{});
    migrations_.back().vm_id = vm_id;
    return migrations_.back();
  }
  const std::deque<MigrationRecord>& migrations() const noexcept { return migrations_; }
  std::deque<MigrationRecord>& migrations() noexcept { return migrations_; }

  double total_migration_time() const noexcept;
  double avg_migration_time() const noexcept;
  double max_downtime() const noexcept;

 private:
  std::deque<MigrationRecord> migrations_;
};

}  // namespace hm::core
