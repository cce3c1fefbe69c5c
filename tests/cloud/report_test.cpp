#include "cloud/report.h"

#include <gtest/gtest.h>

#include <bit>
#include <regex>
#include <set>
#include <sstream>

#include "cloud/experiment.h"

namespace hm::cloud {
namespace {

TEST(Report, FormatSeconds) { EXPECT_EQ(fmt_seconds(1.234), "1.23 s"); }

TEST(Report, FormatBytesPicksUnit) {
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(2048), "2.0 KB");
  EXPECT_EQ(fmt_bytes(3.5 * 1024 * 1024), "3.5 MB");
  EXPECT_EQ(fmt_bytes(2.0 * 1024 * 1024 * 1024), "2.00 GB");
}

TEST(Report, FormatPct) { EXPECT_EQ(fmt_pct(0.4265), "42.6%"); }

TEST(Report, FormatDoublePrecision) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(3.14159, 0), "3");
}

TEST(Report, TableAlignsColumns) {
  Table t({"A", "Long header"});
  t.add_row({"value-that-is-long", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("value-that-is-long"), std::string::npos);
  // Separator rows top/bottom + header separator.
  int separators = 0;
  for (std::size_t p = out.find("+--"); p != std::string::npos; p = out.find("+--", p + 1))
    ++separators;
  EXPECT_GE(separators, 3);
  // Borders and rows line up: every line has the same length.
  std::istringstream lines(out);
  std::string first, line;
  std::getline(lines, first);
  while (std::getline(lines, line)) EXPECT_EQ(line.size(), first.size()) << out;
}

TEST(Report, TableHandlesShortRows) {
  Table t({"A", "B", "C"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(Report, Table1ListsAllApproaches) {
  std::ostringstream os;
  print_table1(os);
  const std::string out = os.str();
  for (const char* name :
       {"our-approach", "mirror", "postcopy", "precopy", "pvfs-shared"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace hm::cloud

// --------------------------------------------------------------------------
// The result-field table and its regime-gated sweep rows. Fields specific to
// a regime (fault recovery, scheduler queueing, audit counters) appear if and
// only if that regime is active, so committed fault-free goldens stay
// byte-identical when a new regime adds fields.

namespace hm::cloud {
namespace {

std::string row_for(bool faults, bool scheduler, bool audit) {
  ExperimentConfig cfg;
  cfg.faults.rand = faults;
  if (scheduler) cfg.scheduler.arrivals.kind = sim::ArrivalKind::kPoisson;
  cfg.audit = audit;
  ExperimentResult r;
  r.recovery.max_time_to_recover_s = 1.5;
  r.scheduler.requests = 3;
  std::ostringstream os;
  write_json_fields(os, cfg, r);
  return os.str();
}

bool has_field(const std::string& row, const char* name) {
  return row.find("\"" + std::string(name) + "\":") != std::string::npos;
}

// Names are unique, and every quoted word of the class map other than the
// envelope's keys is a table row, once per class the row is in.
TEST(ResultFields, UniqueNamesAndClassListsOfTableRows) {
  std::set<std::string> names;
  int memberships = 0;
  for (const ResultField& f : result_fields()) {
    EXPECT_TRUE(names.insert(f.name).second) << "duplicate field " << f.name;
    memberships += std::popcount(f.classes);
  }
  std::ostringstream os;
  write_sweep_header(os);
  const std::string header = os.str();
  const std::set<std::string> keys = {"field_classes", "wall", "solver_work",
                                      "implementation", "rows"};
  const std::regex quoted("\"([^\"]*)\"");
  int listed = 0;
  for (std::sregex_iterator m(header.begin(), header.end(), quoted), end; m != end; ++m) {
    if (keys.count((*m)[1])) continue;
    EXPECT_TRUE(names.count((*m)[1])) << (*m)[1] << " is not a table row";
    ++listed;
  }
  EXPECT_EQ(listed, memberships) << header;
}

TEST(ResultFields, DefaultRegimeEmitsExactlyTheAlwaysFieldsInTableOrder) {
  std::vector<std::string> expected, got;
  for (const ResultField& f : result_fields())
    if (f.regime == Regime::kAlways) expected.push_back(f.name);
  const std::string row = row_for(false, false, false);
  const std::regex key(", \"([^\"]*)\":");
  for (std::sregex_iterator m(row.begin(), row.end(), key), end; m != end; ++m)
    got.push_back((*m)[1]);
  EXPECT_EQ(got, expected) << row;
}

TEST(SweepRowShape, DefaultRegimeEmitsOnlyTheCoreFields) {
  const std::string row = row_for(false, false, false);
  for (const char* f : {"completed", "sim_s", "events", "solver_epochs",
                        "coroutine_frames", "avg_migration_s", "total_traffic_gb"})
    EXPECT_TRUE(has_field(row, f)) << f << " missing from: " << row;
  // Regression: max_time_to_recover_s (and the rest of the recovery block),
  // the downtime/queueing percentiles and the audit counters must NOT leak
  // into fault-free, scheduler-free, unaudited rows.
  for (const char* f :
       {"max_time_to_recover_s", "faults_injected", "recovery_p50_s",
        "downtime_p50_s", "requests", "queueing_p50_s", "max_queueing_delay_s",
        "audit_checks", "audit_violations"})
    EXPECT_FALSE(has_field(row, f)) << f << " leaked into: " << row;
}

TEST(SweepRowShape, FaultRegimeAddsRecoveryBlockClosedByDowntimePercentiles) {
  const std::string row = row_for(/*faults=*/true, false, false);
  for (const char* f : {"faults_injected", "salvaged_chunks", "max_time_to_recover_s",
                        "recovery_p999_s", "downtime_p50_s", "downtime_p999_s"})
    EXPECT_TRUE(has_field(row, f)) << f << " missing from: " << row;
  // Layout compatibility with the pre-scheduler fault goldens: the downtime
  // percentiles close the recovery block.
  EXPECT_GT(row.find("\"downtime_p50_s\":"), row.find("\"recovery_p999_s\":"));
  for (const char* f : {"requests", "queueing_p50_s", "audit_checks"})
    EXPECT_FALSE(has_field(row, f)) << f << " leaked into: " << row;
}

TEST(SweepRowShape, SchedulerRegimeAddsQueueingAndDowntimeFields) {
  const std::string row = row_for(false, /*scheduler=*/true, false);
  for (const char* f :
       {"requests", "requests_dispatched", "requests_completed",
        "requests_abandoned", "requests_rejected", "preemptions",
        "peak_queue_depth", "peak_running", "queueing_p50_s", "queueing_p99_s",
        "queueing_p999_s", "max_queueing_delay_s", "downtime_p50_s"})
    EXPECT_TRUE(has_field(row, f)) << f << " missing from: " << row;
  for (const char* f : {"faults_injected", "max_time_to_recover_s", "audit_checks"})
    EXPECT_FALSE(has_field(row, f)) << f << " leaked into: " << row;
  EXPECT_NE(row.find("\"requests\": 3"), std::string::npos) << row;
}

TEST(SweepRowShape, AuditFlagAppendsAuditCounters) {
  const std::string row = row_for(false, false, /*audit=*/true);
  EXPECT_TRUE(has_field(row, "audit_checks")) << row;
  EXPECT_TRUE(has_field(row, "audit_violations")) << row;
}

}  // namespace
}  // namespace hm::cloud
