#include "cloud/report.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>
#include <utility>

#include "cloud/experiment.h"
#include "core/metrics.h"

namespace hm::cloud {

namespace {

std::string printf_str(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

constexpr double kGiB = 1024.0 * 1024 * 1024;

/// One MigrationRecord member summed over the run's migrations.
template <auto member>
auto migration_sum(const ExperimentResult& r) {
  std::remove_cvref_t<decltype(r.migrations[0].*member)> sum{};
  for (const core::MigrationRecord& m : r.migrations) sum += m.*member;
  return sum;
}

#define HM_GET(expr) [](const ExperimentResult& r) -> FieldValue { return (expr); }
using enum Regime;
using core::MigrationRecord;
using net::TrafficClass;

const ResultField kFields[] = {
    // Run status.
    {"shards", HM_GET(r.shards_used), kShards, kImplementation},
    {"shard_fallback_reason", HM_GET(r.shard_fallback_reason), kShards, kImplementation},
    {"error", HM_GET(r.error), kNonEmpty},
    // Engine and paper metrics.
    {"completed", HM_GET(r.completed), kAlways},
    {"sim_s", HM_GET(r.sim_duration), kAlways},
    {"wall_ms", HM_GET(r.wall_ms), kAlways, kWall},
    {"events", HM_GET(r.engine_events), kAlways, kImplementation},
    {"events_per_sec", HM_GET(r.wall_ms > 0 ? r.engine_events / (r.wall_ms / 1e3) : 0.0),
     kAlways, kWall},
    {"flows", HM_GET(r.engine_flows), kAlways},
    {"flows_per_sec", HM_GET(r.wall_ms > 0 ? r.engine_flows / (r.wall_ms / 1e3) : 0.0),
     kAlways, kWall},
    {"solver_epochs", HM_GET(r.engine_recomputes), kAlways, kImplementation},
    {"solver_components", HM_GET(r.engine_components), kAlways, kSolverWork},
    {"flows_resolved", HM_GET(r.engine_flows_resolved), kAlways, kSolverWork},
    {"flows_resolved_per_epoch",
     HM_GET(r.engine_flows_resolved / std::max(1.0, double(r.engine_recomputes))), kAlways,
     kSolverWork | kImplementation},
    {"escalations", HM_GET(r.engine_escalations), kAlways, kSolverWork},
    {"coroutine_frames", HM_GET(r.engine_frames), kAlways, kImplementation},
    {"avg_migration_s", HM_GET(r.avg_migration_time), kAlways},
    {"total_traffic_gb", HM_GET(r.total_traffic / kGiB), kAlways},
    // Fault recovery and availability.
    {"faults_injected", HM_GET(r.recovery.faults_injected), kFaults},
    {"node_crashes", HM_GET(r.recovery.node_crashes), kFaults},
    {"correlated_events", HM_GET(r.recovery.correlated_events), kFaults},
    {"retries", HM_GET(r.recovery.total_retries), kFaults},
    {"abandoned", HM_GET(r.recovery.migrations_abandoned), kFaults},
    {"recovered", HM_GET(r.recovery.migrations_recovered), kFaults},
    {"salvaged_chunks", HM_GET(r.recovery.salvaged_chunks), kFaults},
    {"retransferred_gb", HM_GET(r.recovery.retransferred_bytes / kGiB), kFaults},
    {"fault_downtime_s", HM_GET(r.recovery.fault_downtime_s), kFaults},
    {"node_downtime_s", HM_GET(r.recovery.node_downtime_s), kFaults},
    {"max_time_to_recover_s", HM_GET(r.recovery.max_time_to_recover_s), kFaults},
    {"recovery_p50_s", HM_GET(r.recovery.recovery_p50_s), kFaults},
    {"recovery_p99_s", HM_GET(r.recovery.recovery_p99_s), kFaults},
    {"recovery_p999_s", HM_GET(r.recovery.recovery_p999_s), kFaults},
    // Fault recovery stretches downtime, preemption churn multiplies it;
    // for fault rows these close the recovery block.
    {"downtime_p50_s", HM_GET(r.recovery.downtime_p50_s), kFaultsOrScheduler},
    {"downtime_p99_s", HM_GET(r.recovery.downtime_p99_s), kFaultsOrScheduler},
    {"downtime_p999_s", HM_GET(r.recovery.downtime_p999_s), kFaultsOrScheduler},
    // Continuous-arrival scheduler.
    {"requests", HM_GET(r.scheduler.requests), kScheduler},
    {"requests_dispatched", HM_GET(r.scheduler.dispatched), kScheduler},
    {"requests_completed", HM_GET(r.scheduler.completed), kScheduler},
    {"requests_abandoned", HM_GET(r.scheduler.abandoned), kScheduler},
    {"requests_rejected", HM_GET(r.scheduler.rejected), kScheduler},
    {"preemptions", HM_GET(r.scheduler.preemptions), kScheduler},
    {"peak_queue_depth", HM_GET(r.scheduler.peak_queue_depth), kScheduler},
    {"peak_running", HM_GET(r.scheduler.peak_running), kScheduler},
    {"queueing_p50_s", HM_GET(r.scheduler.queueing_p50_s), kScheduler},
    {"queueing_p99_s", HM_GET(r.scheduler.queueing_p99_s), kScheduler},
    {"queueing_p999_s", HM_GET(r.scheduler.queueing_p999_s), kScheduler},
    {"max_queueing_delay_s", HM_GET(r.scheduler.max_queueing_delay_s), kScheduler},
    // Invariant auditor.
    {"audit_checks", HM_GET(r.audit_checks), kAudit},
    {"audit_violations", HM_GET(r.audit_violations.size()), kAudit},
    // The rest of the paper's metrics.
    {"app_execution_s", HM_GET(r.app_execution_time), kAlways},
    {"total_migration_s", HM_GET(r.total_migration_time), kAlways},
    {"max_downtime_s", HM_GET(r.max_downtime), kAlways},
    {"memory_rounds", HM_GET(migration_sum<&MigrationRecord::memory_rounds>(r)), kAlways},
    {"chunks_pushed", HM_GET(migration_sum<&MigrationRecord::storage_chunks_pushed>(r)), kAlways},
    {"chunks_pulled", HM_GET(migration_sum<&MigrationRecord::storage_chunks_pulled>(r)), kAlways},
    {"memory_traffic_gb", HM_GET(r.traffic(TrafficClass::kMemory) / kGiB), kAlways},
    {"storage_push_traffic_gb", HM_GET(r.traffic(TrafficClass::kStoragePush) / kGiB), kAlways},
    {"storage_pull_traffic_gb", HM_GET(r.traffic(TrafficClass::kStoragePull) / kGiB), kAlways},
    {"repo_read_traffic_gb", HM_GET(r.traffic(TrafficClass::kRepoRead) / kGiB), kAlways},
    {"pvfs_data_traffic_gb", HM_GET(r.traffic(TrafficClass::kPvfsData) / kGiB), kAlways},
    {"app_comm_traffic_gb", HM_GET(r.traffic(TrafficClass::kAppComm) / kGiB), kAlways},
    {"control_traffic_gb", HM_GET(r.traffic(TrafficClass::kControl) / kGiB), kAlways},
    {"migration_traffic_gb", HM_GET(r.migration_traffic / kGiB), kAlways},
    {"bytes_written", HM_GET(r.bytes_written), kAlways},
    {"bytes_read", HM_GET(r.bytes_read), kAlways},
    {"write_Bps", HM_GET(r.write_Bps), kAlways},
    {"read_Bps", HM_GET(r.read_Bps), kAlways},
    {"cpu_s", HM_GET(r.cpu_seconds_total), kAlways},
};
#undef HM_GET
static_assert(net::kNumTrafficClasses == 7, "one *_traffic_gb row per class");

constexpr std::pair<FieldClass, const char*> kClassNames[] = {
    {kWall, "wall"}, {kSolverWork, "solver_work"}, {kImplementation, "implementation"}};

}  // namespace

std::ostream& operator<<(std::ostream& os, const FieldValue& value) {
  if (const auto* b = std::get_if<bool>(&value.v)) return os << (*b ? "true" : "false");
  if (const auto* s = std::get_if<std::string_view>(&value.v)) return os << '"' << *s << '"';
  if (const auto* i = std::get_if<std::int64_t>(&value.v)) return os << *i;
  return os << std::get<double>(value.v);
}

std::span<const ResultField> result_fields() { return kFields; }

bool field_active(const ResultField& f, const ExperimentConfig& cfg,
                  const ExperimentResult& r) {
  switch (f.regime) {
    case kAlways: return true;
    case kFaults: return cfg.faults.enabled();
    case kFaultsOrScheduler: return cfg.faults.enabled() || cfg.scheduler.enabled();
    case kScheduler: return cfg.scheduler.enabled();
    case kAudit: return cfg.audit;
    case kShards: return cfg.shards != 1;
    case kNonEmpty: return !std::get<std::string_view>(f.get(r).v).empty();
  }
  return false;
}

void write_json_fields(std::ostream& os, const ExperimentConfig& cfg,
                       const ExperimentResult& r) {
  for (const ResultField& f : kFields)
    if (field_active(f, cfg, r)) os << ", \"" << f.name << "\": " << f.get(r);
}

void write_sweep_header(std::ostream& os) {
  os << "{\"field_classes\": {";
  for (const auto& [cls, name] : kClassNames) {
    os << (cls == kWall ? "\"" : "], \"") << name << "\": [";
    const char* sep = "\"";
    for (const ResultField& f : kFields)
      if (f.classes & cls) os << std::exchange(sep, ", \"") << f.name << '"';
  }
  os << "]}, \"rows\": [\n";
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

  // "| cell |" and "+------+": each column is its width plus three.
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < cells.size() ? cells[i] : "";
      cell.resize(widths[i], ' ');
      os << " " << cell << " |";
    }
    os << "\n";
  };
  auto print_sep = [&] {
    os << "+";
    for (std::size_t w : widths) os << std::string(w + 2, '-') << "+";
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

}  // namespace hm::cloud
