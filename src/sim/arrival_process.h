// Deterministic open-arrival request streams: a seed- or trace-driven
// sequence of (time, priority) arrival instants that the continuous
// scheduler (cloud/scheduler.h) replays through ordinary Simulator timers.
// Arrivals are just scheduled events, so the engine's determinism contract
// extends to them unchanged: the same (spec, seed) pair produces the
// identical request timeline in both solver regimes and under --shards.
//
// Three rate processes:
//  * "poisson:" — homogeneous Poisson stream: i.i.d. exponential gaps at a
//    constant mean rate.
//  * "diurnal:" — non-homogeneous Poisson with a sinusoidal day/night rate
//    profile, generated by thinning against the peak rate. Thinning draws
//    (candidate gap, then accept) come from one stream in a fixed per-
//    candidate order, so the accepted timeline is a pure function of
//    (spec, seed).
//  * "trace:"   — explicit arrival instants replayed verbatim.
//
// Priorities are drawn from a *separate* forked stream ("arrival-prio"),
// one draw per emitted arrival, so changing the high-priority share never
// perturbs the arrival instants themselves — the same fork discipline every
// other component follows (sim/random.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"

namespace hm::sim {

enum class ArrivalKind : std::uint8_t { kNone, kPoisson, kDiurnal, kTrace };
const char* arrival_kind_name(ArrivalKind k) noexcept;

/// Parsed --arrivals process, before seeding. Grammar (optional "arrivals:"
/// prefix; the scheduler-level spec may append ";sched:..." — see
/// cloud/scheduler.h):
///   SPEC    := "none" | "poisson:" KEYS | "diurnal:" KEYS | "trace:" ITEMS
///   KEYS    := k=v (',' k=v)*
///   ITEMS   := (T | k=v) (',' (T | k=v))*     (T = arrival instant, seconds)
/// poisson keys: rate (arrivals/s, > 0), from, until (window, seconds),
///   count (cap on arrivals), hi (high-priority share in [0,1]).
/// diurnal keys: base (mean rate), amp (relative swing in [0,1]; the
///   instantaneous rate is base*(1 + amp*sin(2*pi*(t-phase)/period))),
///   period, phase, plus from/until/count/hi as above.
/// trace keys: from/until/count/hi as above (other items are instants,
///   >= 0, sorted ascending).
/// Items, numbers and diagnostics follow util/spec.h: from >= 0, until > 0,
/// count a uint32, hi in [0,1]. Poisson/diurnal streams must be bounded:
/// until > 0 or count > 0, and until > from.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kNone;
  double rate = 0.0;        // poisson mean rate / diurnal base rate
  double amp = 0.0;         // diurnal relative amplitude, [0, 1]
  double period = 86400.0;  // diurnal period (default: one day)
  double phase = 0.0;       // diurnal phase shift (seconds)
  double from = 0.0;        // no arrival before this instant
  double until = 0.0;       // no arrival at/after this instant (0 = unbounded)
  std::uint32_t count = 0;  // cap on emitted arrivals (0 = uncapped)
  double hi_share = 0.0;    // P(arrival is high priority), [0, 1]
  std::vector<double> times;  // trace instants, ascending

  bool enabled() const noexcept { return kind != ArrivalKind::kNone; }
};

/// Parse a --arrivals argument. Returns false with *err set on a malformed
/// spec (unknown kind or key, a value outside its key's range such as a
/// non-positive rate/period or amp or hi outside [0,1], an unbounded
/// poisson/diurnal stream, a trace listing no instant).
bool parse_arrival_spec(std::string_view arg, ArrivalSpec* out, std::string* err);

struct Arrival {
  double at = 0.0;
  bool high_priority = false;
};

/// Deterministic generator over a spec: next() yields arrivals in
/// nondecreasing time order until the stream is exhausted (then forever
/// nullopt). Gap/thinning draws come from rng.fork("arrivals") and priority
/// draws from rng.fork("arrival-prio") — pass the experiment's root Rng.
class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, const Rng& rng);

  std::optional<Arrival> next();

  std::uint32_t emitted() const noexcept { return emitted_; }

 private:
  /// Instantaneous diurnal rate at time t (>= 0 by the amp <= 1 contract).
  double rate_at(double t) const noexcept;

  ArrivalSpec spec_;
  Rng gaps_;   // arrival-instant draws (gaps + thinning acceptance)
  Rng prio_;   // one priority draw per emitted arrival
  double t_;
  std::size_t trace_idx_ = 0;
  std::uint32_t emitted_ = 0;
  bool exhausted_ = false;
};

}  // namespace hm::sim
