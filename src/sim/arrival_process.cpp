#include "sim/arrival_process.h"

#include <algorithm>
#include <cmath>

#include "util/spec.h"

namespace hm::sim {

const char* arrival_kind_name(ArrivalKind k) noexcept {
  switch (k) {
    case ArrivalKind::kNone: return "none";
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

bool parse_arrival_spec(std::string_view arg, ArrivalSpec* out, std::string* err) {
  using util::kInf;
  using util::spec_error;
  *out = ArrivalSpec{};
  ArrivalSpec& s = *out;
  if (arg.rfind("arrivals:", 0) == 0) arg = arg.substr(9);
  if (arg.empty() || arg == "none") return true;
  // Keys shared by every kind: the window, the cap and the priority share.
  std::vector<util::SpecKey> keys = {
      {"from", &s.from},
      {"until", &s.until, 0, kInf, true},
      {"count", &s.count, 0, UINT32_MAX},
      {"hi", &s.hi_share, 0, 1},
  };
  const std::size_t colon = arg.find(':');
  const std::string_view kind = colon == std::string_view::npos ? "" : arg.substr(0, colon);
  if (kind == "poisson") {
    s.kind = ArrivalKind::kPoisson;
    keys.push_back({"rate", &s.rate, 0, kInf, true});
  } else if (kind == "diurnal") {
    s.kind = ArrivalKind::kDiurnal;
    keys.insert(keys.end(), {{"base", &s.rate, 0, kInf, true},
                             {"amp", &s.amp, 0, 1},
                             {"period", &s.period, 0, kInf, true},
                             {"phase", &s.phase, -kInf}});
  } else if (kind == "trace") {
    s.kind = ArrivalKind::kTrace;
  } else {
    return spec_error("arrival spec", "unknown arrival process '" + std::string(arg) +
                                          "' (poisson:...|diurnal:...|trace:...)", err);
  }
  const std::string grammar = std::string(kind) + " arrival spec";
  const std::string_view body = arg.substr(colon + 1);
  if (s.kind == ArrivalKind::kTrace) {
    // Items are instants, or keys.
    double t = 0;
    const util::SpecKey instant{"instant", &t};
    if (!util::for_each_item(body, ',', [&](std::string_view item) {
          if (item.find('=') != std::string_view::npos)
            return util::parse_key_item(grammar, keys, item, err);
          if (!util::parse_value(grammar, instant, item, err)) return false;
          s.times.push_back(t);
          return true;
        }))
      return false;
    if (s.times.empty()) return spec_error(grammar, "lists no instants", err);
    std::sort(s.times.begin(), s.times.end());
    return true;
  }
  if (!util::parse_keys(grammar, body, keys, err)) return false;
  if (s.rate <= 0)
    return spec_error(grammar, s.kind == ArrivalKind::kDiurnal ? "requires 'base' > 0"
                                                               : "requires 'rate' > 0", err);
  if (s.until == 0 && s.count == 0)
    return spec_error(grammar, "stream is unbounded: set 'until' or 'count'", err);
  if (s.until > 0 && s.until <= s.from)
    return spec_error(grammar, "'until' must exceed 'from'", err);
  return true;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, const Rng& rng)
    : spec_(spec),
      gaps_(rng.fork("arrivals")),
      prio_(rng.fork("arrival-prio")),
      t_(spec.from) {}

double ArrivalProcess::rate_at(double t) const noexcept {
  const double w = 2.0 * M_PI * (t - spec_.phase) / spec_.period;
  return std::max(0.0, spec_.rate * (1.0 + spec_.amp * std::sin(w)));
}

std::optional<Arrival> ArrivalProcess::next() {
  if (exhausted_ || !spec_.enabled()) return std::nullopt;
  if (spec_.count > 0 && emitted_ >= spec_.count) {
    exhausted_ = true;
    return std::nullopt;
  }
  switch (spec_.kind) {
    case ArrivalKind::kTrace: {
      // Skip instants outside the [from, until) window (verbatim otherwise).
      while (trace_idx_ < spec_.times.size() &&
             spec_.times[trace_idx_] < spec_.from)
        ++trace_idx_;
      if (trace_idx_ >= spec_.times.size() ||
          (spec_.until > 0 && spec_.times[trace_idx_] >= spec_.until)) {
        exhausted_ = true;
        return std::nullopt;
      }
      t_ = spec_.times[trace_idx_++];
      break;
    }
    case ArrivalKind::kPoisson: {
      t_ += gaps_.exponential(1.0 / spec_.rate);
      if (spec_.until > 0 && t_ >= spec_.until) {
        exhausted_ = true;
        return std::nullopt;
      }
      break;
    }
    case ArrivalKind::kDiurnal: {
      // Thinning against the peak rate: candidates arrive at the constant
      // peak; each is accepted with probability rate(t)/peak. Draw order per
      // candidate is fixed (gap, then acceptance), so the accepted stream is
      // deterministic in (spec, seed).
      const double peak = spec_.rate * (1.0 + spec_.amp);
      for (;;) {
        t_ += gaps_.exponential(1.0 / peak);
        if (spec_.until > 0 && t_ >= spec_.until) {
          exhausted_ = true;
          return std::nullopt;
        }
        if (gaps_.uniform_real(0.0, 1.0) < rate_at(t_) / peak) break;
      }
      break;
    }
    case ArrivalKind::kNone:
      return std::nullopt;
  }
  ++emitted_;
  // One priority draw per emitted arrival, always consumed, from its own
  // stream — changing hi_share re-labels arrivals but never moves them.
  const bool hi = prio_.uniform_real(0.0, 1.0) < spec_.hi_share;
  return Arrival{t_, hi};
}

}  // namespace hm::sim
