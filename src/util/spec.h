// The shared rules of the option-string grammars: --faults
// (sim/fault_plan.h), --arrivals and its ";sched:" list
// (sim/arrival_process.h, cloud/scheduler.h) and trace:SPEC
// (workloads/trace_gen.h). Each grammar is a key table plus its own
// cross-key checks; what an item is, what a number is and how a rejected
// value is reported are decided here, once:
//  * items: a list splits at its separator, and empty items are skipped;
//  * numbers: one std::from_chars number spanning the whole value (no
//    leading space or '+', no hex), finite, inside the key's range, and
//    whole when the key stores an integer;
//  * diagnostics: "<grammar>: <message>"; a rejected value reads
//    "<grammar>: '<key>' must be <what the key accepts>, got '<value>'".
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <variant>

namespace hm::util {

inline constexpr double kInf = std::numeric_limits<double>::infinity();
/// Largest count a spec may ask for (events per category, node ids, trace
/// pages and chunks, generator steps and draws): it bounds what a parsed
/// spec can make the simulator allocate or loop over.
inline constexpr double kMaxCount = 1 << 24;

/// Where a key's value goes. A double slot takes any finite number in range;
/// every other slot is an integer slot and also requires a whole number.
using SpecSlot = std::variant<double*, std::uint32_t*, std::uint64_t*, int*, bool*>;

/// One row of a grammar's key table: the value must lie in [lo, hi], or in
/// (lo, hi] when `open_lo` (lo = -kInf only with hi = kInf), and is stored
/// as value x `scale`. Bounds are whole numbers, and an integer slot's hi /
/// scale fits its type.
struct SpecKey {
  std::string_view name;
  SpecSlot slot;
  double lo = 0;
  double hi = kInf;
  bool open_lo = false;
  double scale = 1;
};

/// Sets *err (if non-null) to "<grammar>: <msg>" and returns false.
bool spec_error(std::string_view grammar, std::string_view msg, std::string* err);

/// Calls item(piece) for each non-empty piece of `body` between `sep`s, in
/// order; stops at, and returns false from, the first call returning false.
template <class Fn>
bool for_each_item(std::string_view body, char sep, Fn&& item) {
  while (!body.empty()) {
    const std::size_t cut = body.find(sep);
    const std::string_view piece = body.substr(0, cut);
    body = cut == std::string_view::npos ? std::string_view{} : body.substr(cut + 1);
    if (!piece.empty() && !item(piece)) return false;
  }
  return true;
}

/// The number rule: stores `val` into the key's slot, or returns false with
/// "<grammar>: '<key>' must be ..., got '<val>'" in *err.
bool parse_value(std::string_view grammar, const SpecKey& key, std::string_view val,
                 std::string* err);

/// One "key=value" item against a key table.
bool parse_key_item(std::string_view grammar, std::span<const SpecKey> keys,
                    std::string_view item, std::string* err);

/// A ','-separated list of "key=value" items against a key table.
bool parse_keys(std::string_view grammar, std::string_view body,
                std::span<const SpecKey> keys, std::string* err);

}  // namespace hm::util
