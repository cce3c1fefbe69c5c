#include "cloud/report.h"

#include <algorithm>
#include <cstdio>

#include "cloud/experiment.h"
#include "core/metrics.h"

namespace hm::cloud {

namespace {
std::string printf_str(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}
}  // namespace

void sweep_row_fields(std::ostream& os, const ExperimentResult& r,
                      const SweepRowOptions& opt) {
  const double wall_s = r.wall_ms / 1e3;
  const double epochs =
      r.engine_recomputes ? static_cast<double>(r.engine_recomputes) : 1.0;
  os << ", \"completed\": " << (r.completed ? "true" : "false")
     << ", \"sim_s\": " << r.sim_duration
     << ", \"wall_ms\": " << r.wall_ms
     << ", \"events\": " << r.engine_events
     << ", \"events_per_sec\": " << (wall_s > 0 ? r.engine_events / wall_s : 0)
     << ", \"flows\": " << r.engine_flows
     << ", \"flows_per_sec\": " << (wall_s > 0 ? r.engine_flows / wall_s : 0)
     << ", \"solver_epochs\": " << r.engine_recomputes
     << ", \"solver_components\": " << r.engine_components
     << ", \"flows_resolved\": " << r.engine_flows_resolved
     << ", \"flows_resolved_per_epoch\": " << (r.engine_flows_resolved / epochs)
     << ", \"escalations\": " << r.engine_escalations
     << ", \"coroutine_frames\": " << r.engine_frames
     << ", \"frames_reused\": " << r.engine_frames_reused
     << ", \"frame_heap_allocs\": " << r.engine_frame_heap_allocs
     << ", \"avg_migration_s\": " << r.avg_migration_time
     << ", \"total_traffic_gb\": " << r.total_traffic / (1024.0 * 1024 * 1024);
  if (opt.fault_regime) {
    const RecoveryStats& rc = r.recovery;
    os << ", \"faults_injected\": " << rc.faults_injected
       << ", \"node_crashes\": " << rc.node_crashes
       << ", \"correlated_events\": " << rc.correlated_events
       << ", \"retries\": " << rc.total_retries
       << ", \"abandoned\": " << rc.migrations_abandoned
       << ", \"recovered\": " << rc.migrations_recovered
       << ", \"salvaged_chunks\": " << rc.salvaged_chunks
       << ", \"retransferred_gb\": "
       << rc.retransferred_bytes / (1024.0 * 1024 * 1024)
       << ", \"fault_downtime_s\": " << rc.fault_downtime_s
       << ", \"node_downtime_s\": " << rc.node_downtime_s
       << ", \"max_time_to_recover_s\": " << rc.max_time_to_recover_s
       << ", \"recovery_p50_s\": " << rc.recovery_p50_s
       << ", \"recovery_p99_s\": " << rc.recovery_p99_s
       << ", \"recovery_p999_s\": " << rc.recovery_p999_s;
  }
  // Downtime percentiles move under either regime (fault recovery stretches
  // them, preemption churn multiplies attempts); for fault rows they close
  // the recovery block, byte-identical to the pre-scheduler layout.
  if (opt.fault_regime || opt.scheduler_regime) {
    os << ", \"downtime_p50_s\": " << r.recovery.downtime_p50_s
       << ", \"downtime_p99_s\": " << r.recovery.downtime_p99_s
       << ", \"downtime_p999_s\": " << r.recovery.downtime_p999_s;
  }
  if (opt.scheduler_regime) {
    const SchedulerStats& s = r.scheduler;
    os << ", \"requests\": " << s.requests
       << ", \"requests_dispatched\": " << s.dispatched
       << ", \"requests_completed\": " << s.completed
       << ", \"requests_abandoned\": " << s.abandoned
       << ", \"requests_rejected\": " << s.rejected
       << ", \"preemptions\": " << s.preemptions
       << ", \"peak_queue_depth\": " << s.peak_queue_depth
       << ", \"peak_running\": " << s.peak_running
       << ", \"queueing_p50_s\": " << s.queueing_p50_s
       << ", \"queueing_p99_s\": " << s.queueing_p99_s
       << ", \"queueing_p999_s\": " << s.queueing_p999_s
       << ", \"max_queueing_delay_s\": " << s.max_queueing_delay_s;
  }
  if (opt.audit) {
    os << ", \"audit_checks\": " << r.audit_checks
       << ", \"audit_violations\": " << r.audit_violations.size();
  }
}

std::string fmt_seconds(double s) { return printf_str("%.2f s", s); }

std::string fmt_bytes(double bytes) {
  constexpr double kKB = 1024.0, kMB = kKB * 1024, kGB = kMB * 1024;
  if (bytes >= kGB) return printf_str("%.2f GB", bytes / kGB);
  if (bytes >= kMB) return printf_str("%.1f MB", bytes / kMB);
  if (bytes >= kKB) return printf_str("%.1f KB", bytes / kKB);
  return printf_str("%.0f B", bytes);
}

std::string fmt_pct(double fraction) { return printf_str("%.1f%%", fraction * 100.0); }
std::string fmt_double(double v, int precision) {
  char fmt[16];
  std::snprintf(fmt, sizeof(fmt), "%%.%df", precision);
  return printf_str(fmt, v);
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_)
    for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "| ";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      cell.resize(widths[i], ' ');
      os << cell << " | ";
    }
    os << "\n";
  };
  auto print_sep = [&] {
    os << "+";
    for (std::size_t w : widths) os << std::string(w + 3, '-') << "+";
    os << "\n";
  };

  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) print_row(row);
  print_sep();
}

void print_table1(std::ostream& os) {
  Table t({"Approach", "Local storage transfer strategy"});
  for (core::Approach a :
       {core::Approach::kHybrid, core::Approach::kMirror, core::Approach::kPostcopy,
        core::Approach::kPrecopy, core::Approach::kPvfsShared}) {
    t.add_row({core::approach_name(a), core::approach_strategy_summary(a)});
  }
  os << "Table 1: Summary of compared approaches\n";
  t.print(os);
}

void print_banner(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

}  // namespace hm::cloud
