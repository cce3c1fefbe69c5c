// Checked numeric arguments for the command-line front ends (hybridmig_sim
// and bench/paper_figures): a malformed number prints a diagnostic and
// exits 2 instead of silently becoming 0 or wrapping.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

namespace hm::cli {

/// Parse a whole argument as a number in [lo, hi]; anything else (empty,
/// trailing characters, out of range) prints a diagnostic and exits 2.
template <class T>
T parse_number(const char* flag, const std::string& text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const bool whole = !text.empty() && ptr == end;
  if (whole && ec == std::errc{} && value >= lo && value <= hi) return value;
  if (whole && (ec == std::errc{} || ec == std::errc::result_out_of_range))
    std::cerr << flag << ": " << text << " is out of range [" << lo << ", " << hi << "]\n";
  else
    std::cerr << flag << ": expected a number, got '" << text << "'\n";
  std::exit(2);
}

}  // namespace hm::cli
