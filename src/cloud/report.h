// Reporting: the result-field table behind sweep rows, CLI output and golden
// field classes; plain-text tables, unit formatting, Table 1.
#pragma once

#include <concepts>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hm::cloud {

struct ExperimentConfig;
struct ExperimentResult;

/// A result field's value in its ExperimentResult type (integers widen to
/// int64; strings view the result they came from). Streams as JSON.
struct FieldValue {
  std::variant<bool, std::int64_t, double, std::string_view> v;
  FieldValue(bool b) : v(b) {}
  FieldValue(std::integral auto i) : v(static_cast<std::int64_t>(i)) {}
  FieldValue(double d) : v(d) {}
  FieldValue(const std::string& s) : v(std::string_view(s)) {}
  bool operator==(const FieldValue&) const = default;
};
std::ostream& operator<<(std::ostream& os, const FieldValue& value);

/// When a field is printed, judged on the config that ran: regime fields
/// appear only in their regime, so older rows keep their shape.
enum class Regime : std::uint8_t {
  kAlways,
  kFaults,             // cfg.faults.enabled()
  kFaultsOrScheduler,  // either moves the downtime percentiles
  kScheduler,          // cfg.scheduler.enabled()
  kAudit,              // cfg.audit
  kShards,             // cfg.shards != 1: a worker count was asked for
  kNonEmpty,           // the (string) value is non-empty
};

/// Golden-gate classes (bit set); tools/check_sweep_golden.py strips them
/// by mode. A field in no class is virtual: equal configs reproduce it
/// exactly.
enum FieldClass : std::uint8_t {
  kWall = 1,            // host wall-clock derived
  kSolverWork = 2,      // differs between solver regimes
  kImplementation = 4,  // engine bookkeeping, and the shard fields (kShards)
};

struct ResultField {
  const char* name;
  FieldValue (*get)(const ExperimentResult&);
  Regime regime;
  std::uint8_t classes = 0;  // FieldClass bits; 0 = virtual
};

/// Every result field the CLI prints and the sweeps emit and gate, in row
/// order.
std::span<const ResultField> result_fields();

/// Whether `f` is printed for `cfg`'s run `r`.
bool field_active(const ResultField& f, const ExperimentConfig& cfg,
                  const ExperimentResult& r);

/// Append `, "name": value` for every active result field.
void write_json_fields(std::ostream& os, const ExperimentConfig& cfg,
                       const ExperimentResult& r);

/// A sweep's opening JSON line: the field-class map, then `"rows": [`.
void write_sweep_header(std::ostream& os);

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

}  // namespace hm::cloud
