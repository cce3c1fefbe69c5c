#include "util/spec.h"

#include <charconv>
#include <cmath>
#include <type_traits>

namespace hm::util {

namespace {

std::string fmt_bound(double v) { return std::to_string(static_cast<std::uint64_t>(v)); }

/// What a key accepts, e.g. "an integer in [1, 16777216]" or "a finite
/// number > 0".
std::string accepted(const SpecKey& k, bool integer) {
  std::string want = integer ? "an integer" : "a finite number";
  if (k.lo == -kInf) return want;
  if (k.hi == kInf) return want + (k.open_lo ? " > " : " >= ") + fmt_bound(k.lo);
  return want + " in " + (k.open_lo ? "(" : "[") + fmt_bound(k.lo) + ", " + fmt_bound(k.hi) +
         "]";
}

}  // namespace

bool spec_error(std::string_view grammar, std::string_view msg, std::string* err) {
  if (err) *err = std::string(grammar).append(": ").append(msg);
  return false;
}

bool parse_value(std::string_view grammar, const SpecKey& key, std::string_view val,
                 std::string* err) {
  const bool integer = !std::holds_alternative<double*>(key.slot);
  double d = 0;
  const char* end = val.data() + val.size();
  const auto [ptr, ec] = std::from_chars(val.data(), end, d);
  if (ec != std::errc{} || ptr != end || !std::isfinite(d) ||
      !(key.open_lo ? d > key.lo : d >= key.lo) || d > key.hi ||
      (integer && d != std::floor(d)))
    return spec_error(grammar,
                      std::string("'").append(key.name).append("' must be ")
                          .append(accepted(key, integer)).append(", got '").append(val)
                          .append("'"),
                      err);
  std::visit([&](auto* slot) { *slot = static_cast<std::decay_t<decltype(*slot)>>(d * key.scale); },
             key.slot);
  return true;
}

bool parse_key_item(std::string_view grammar, std::span<const SpecKey> keys,
                    std::string_view item, std::string* err) {
  const std::size_t eq = item.find('=');
  if (eq == std::string_view::npos)
    return spec_error(grammar, "expected key=value, got '" + std::string(item) + "'", err);
  const std::string_view name = item.substr(0, eq);
  for (const SpecKey& key : keys)
    if (key.name == name) return parse_value(grammar, key, item.substr(eq + 1), err);
  return spec_error(grammar, "unknown key '" + std::string(name) + "'", err);
}

bool parse_keys(std::string_view grammar, std::string_view body,
                std::span<const SpecKey> keys, std::string* err) {
  return for_each_item(body, ',', [&](std::string_view item) {
    return parse_key_item(grammar, keys, item, err);
  });
}

}  // namespace hm::util
