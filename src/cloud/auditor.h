// Virtual-time watchdog and invariant auditor for fault/churn experiments.
//
// Runs alongside the experiment on ordinary simulator timers and turns two
// classes of silent failure into hard, named violations:
//
//  * Liveness — no in-flight migration may sit beyond the progress deadline
//    without either measurable progress (its record's counters moved) or an
//    open fault excuse (the injector reports a crash/degrade/flap window on
//    one of its endpoints, or a repository outage). A stuck migration with
//    no excuse is a bug, not bad luck.
//  * Conservation — chunk state must be accounted for end to end: every
//    chunk a retry adopts as "valid" must actually be present in the
//    salvaged replica, every source-modified chunk must be present at the
//    destination when a migration completes (or superseded by a newer
//    destination-side write), and a record's retransferred bytes can never
//    exceed the wire work it actually performed.
//
// The auditor only reads state; it schedules no I/O and never perturbs the
// timeline beyond its own timer events (which is why audited regimes gate
// against goldens generated with the auditor on).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/middleware.h"

namespace hm::cloud {

class FaultInjector;

class Auditor {
 public:
  /// The experiment's cadence: a watchdog tick every 10 s of virtual time,
  /// and a stall flagged after 120 s without progress or fault excuse.
  static constexpr double kCheckIntervalS = 10.0;
  static constexpr double kProgressDeadlineS = 120.0;

  /// Both periods must be positive.
  Auditor(sim::Simulator& sim, Middleware& mw, double check_interval_s,
          double progress_deadline_s);
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Attribution source for liveness excuses. Without an injector no fault
  /// window can excuse a stall — every deadline miss is flagged.
  void set_injector(const FaultInjector* inj) noexcept { injector_ = inj; }

  /// Start the periodic watchdog tick (self-rescheduling timer).
  void arm();

  /// Conservation hook: a retry is about to adopt a salvaged destination
  /// replica; every chunk marked valid must be present in it.
  void check_adoption(const storage::ChunkStore& store,
                      const util::DirtyBitmap& valid, int vm_id);
  /// Conservation hook: a migration just completed (source released).
  /// Every source-modified chunk must be present at the destination, and
  /// the record's retransfer accounting must not exceed its wire work.
  void check_completion(const core::StorageMigrationSession& session,
                        double chunk_bytes);

  std::uint64_t checks_run() const noexcept { return checks_; }
  const std::vector<std::string>& violations() const noexcept { return violations_; }

 private:
  /// Progress signature: any change in these fields counts as progress.
  struct Sig {
    double mem = -1, pushed = -1, pulled = -1, downtime = -1, t_ct = -1;
    int rounds = -1, retries = -1;
    bool operator==(const Sig&) const = default;
  };
  struct Watch {
    Sig sig{};
    double last_progress_at = 0;
    bool flagged = false;
    /// Endpoint attribution for fault excuses, captured from the migration's
    /// most recent attempt (the record itself does not carry nodes).
    net::NodeId src = 0;
    net::NodeId dst = 0;
  };

  void tick();
  void flag(std::string msg);

  sim::Simulator& sim_;
  Middleware& mw_;
  const FaultInjector* injector_ = nullptr;
  double interval_s_;
  double deadline_s_;
  std::unordered_map<const core::MigrationRecord*, Watch> watches_;
  std::uint64_t checks_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace hm::cloud
