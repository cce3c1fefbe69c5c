// Plain-text reporting helpers: fixed-width tables in the shape of the
// paper's figures, unit formatting, and the Table 1 approach summary.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace hm::cloud {

struct ExperimentResult;

/// Which regime-gated field groups a sweep row carries. Mirrors the
/// fault-field convention of bench/fig4_scale_sweep.cpp: a field group is
/// emitted (and golden-checked) only when its regime is active, so the
/// committed default-regime goldens stay byte-compatible as new regimes are
/// added.
struct SweepRowOptions {
  /// --faults regime: the recovery/availability block (counters, recovery
  /// percentiles, max_time_to_recover_s).
  bool fault_regime = false;
  /// --arrivals regime: the scheduler block (request counters, queue/running
  /// peaks, queueing-delay percentiles). Downtime percentiles are emitted
  /// whenever either regime is active — fault recovery and preemption churn
  /// both move them.
  bool scheduler_regime = false;
  /// Audit fields (checks run, violations found).
  bool audit = false;
};

/// Emit the shared tail of one sweep-JSON row — every field from
/// "completed" onward, starting with ", " — onto `os`. The caller emits its
/// own identity fields (concurrency, core, workload/faults/shards specs)
/// first. Shared by fig4_scale_sweep and steady_state_sweep so the row
/// shape (and the byte-exact golden contract) cannot drift between them.
void sweep_row_fields(std::ostream& os, const ExperimentResult& r,
                      const SweepRowOptions& opt);

std::string fmt_seconds(double s);
std::string fmt_bytes(double bytes);   // auto KB/MB/GB
std::string fmt_pct(double fraction);  // 0.42 -> "42.0%"
std::string fmt_double(double v, int precision = 2);

class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print the paper's Table 1 (summary of compared approaches).
void print_table1(std::ostream& os);

/// Section header helper for bench output.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace hm::cloud
