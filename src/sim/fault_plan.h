// Deterministic fault plans: a seed- or script-driven list of fault events
// (node crashes, link flaps, degraded-rate windows, slow receivers,
// repository outages) that an injector replays through the ordinary
// Simulator lanes. Faults are just scheduled events, so the engine's
// determinism contract extends to them unchanged: the same (spec, seed)
// pair produces the identical fault timeline, and therefore the identical
// virtual-time metrics, in both solver regimes.
//
// Two generative modes exist besides scripted events:
//  * "rand:"  — a bounded plan: fixed per-category counts drawn up front
//    into a materialized event list.
//  * "churn:" — an unbounded continuous fault process: each node (and each
//    failure domain) draws crash/degrade/flap occurrences from per-category
//    MTBF/MTTR distributions for the whole run. Churn events are NOT
//    materialized here — the injector emits them lazily, one timer ahead
//    per process, each process on its own forked RNG stream
//    (rng.fork("churn", node)), so the draw sequence of one process can
//    never depend on the interleaving of the others.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.h"

namespace hm::sim {

/// Declaration order is the (at, kind, target) sort key of a fault plan.
enum class FaultKind : std::uint8_t {
  kSourceCrash,
  kDestCrash,
  kLinkDegrade,
  kLinkFlap,
  kSlowReceiver,
  kRepoOutage,
  kNodeCrash,
  kNodeDegrade,
  kNodeFlap,
  kDomainCrash,
  kDomainDegrade,
};

/// What a fault does to each node it strikes, for its window: crash then
/// reboot, scale the NIC by `factor` both ways, hold the link down, scale
/// only ingress, or (no node) take the repository and PVFS servers offline.
enum class FaultEffect : std::uint8_t { kCrash, kDegrade, kFlap, kSlowReceive, kOutage };
/// What a FaultEvent::target names: a migration index (its source or its
/// destination node), a raw node id, a failure-domain index, or nothing
/// (the repository).
enum class FaultScope : std::uint8_t {
  kMigrationSource,
  kMigrationDest,
  kNode,
  kDomain,
  kRepository,
};

/// One row per FaultKind: its --faults grammar name, effect and scope.
struct FaultKindInfo {
  const char* name;
  FaultEffect effect;
  FaultScope scope;
};
const FaultKindInfo& fault_kind_info(FaultKind k) noexcept;

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDegrade;
  double at = 0.0;          // virtual time the fault strikes
  double duration_s = 10.0; // window length (for crashes: reboot delay)
  double factor = 0.25;     // capacity multiplier for degrade / slow-recv
  std::uint32_t target = 0; // migration index / node id / domain index
};

/// A named failure domain (rack): the member nodes that die or degrade
/// together under a correlated (domain-scoped) event.
struct FaultDomain {
  std::string name;
  std::vector<std::uint32_t> nodes;  // ascending, duplicate-free
};

/// Knobs for the "churn:" spec form: per-category MTBF/MTTR means (seconds).
/// A category is active iff its mtbf is > 0. Occurrence gaps and repair
/// durations are exponential draws; durations are floored at 0.5 s and the
/// degrade factor is clamped into (0, 1] like everywhere else.
struct FaultChurnSpec {
  double crash_mtbf = 0.0;     // per-node crash process
  double crash_mttr = 10.0;
  double degrade_mtbf = 0.0;   // per-node NIC degradation process
  double degrade_mttr = 15.0;
  double flap_mtbf = 0.0;      // per-node link-flap process
  double flap_mttr = 2.0;
  double domain_mtbf = 0.0;    // per-domain correlated crash process
  double domain_mttr = 10.0;
  double factor = 0.25;        // degrade capacity multiplier
  double from = 0.0;           // churn starts after this instant
  double until = 0.0;          // no occurrence starts past this (0 = unbounded)
  std::uint32_t nodes = 0;     // churn the first N node ids (0 = all
                               // migration endpoints: sources + destinations)
};

/// Knobs for the "rand:" spec form — per-category counts plus the shared
/// time window and default severity the draws use.
struct FaultRandSpec {
  std::uint32_t crashes = 0;      // source-node crashes
  std::uint32_t dst_crashes = 0;  // destination-node crashes
  std::uint32_t degrades = 0;
  std::uint32_t flaps = 0;
  std::uint32_t slow = 0;
  std::uint32_t outages = 0;
  double from = 100.0;   // window start for fault times
  double span = 200.0;   // fault times drawn uniformly in [from, from+span)
  double dur = 10.0;     // mean duration (exponential draw, floored)
  double factor = 0.25;  // degrade / slow-recv capacity multiplier
};

/// Parsed --faults=SPEC, before seeding. Grammar (optional "faults:" prefix):
///   SPEC    := "none" | BODY [';' DOMAINS] | DOMAINS
///   BODY    := EVENT (';' EVENT)* | "rand:" k=v (',' k=v)* | "churn:" k=v (',' k=v)*
///   EVENT   := KIND '@' T ['+' DUR] ['*' FACTOR] ['#' TARGET]
///   KIND    := a FaultKindInfo::name
///   DOMAINS := "domains:" NAME '=' RANGE ('+' RANGE)* (',' NAME '=' ...)*
///   RANGE   := N | N '-' M          (inclusive node-id range)
/// Items, numbers and diagnostics follow util/spec.h; empty items are
/// skipped. Event modifiers: time >= 0, duration > 0, target a uint32.
/// rand keys: crashes, dst-crashes, degrades, flaps, slow, outages (counts
/// up to 2^24), from (>= 0), span, dur (seconds, > 0; from + span finite),
/// factor.
/// churn keys: crash-mtbf, crash-mttr, degrade-mtbf, degrade-mttr,
/// flap-mtbf, flap-mttr, domain-mtbf, domain-mttr (seconds, > 0; a category
/// is active iff its mtbf is set), factor, from (>= 0), until (> from),
/// nodes (up to 2^24). Node ids lie below 2^24. Every factor is clamped
/// into (0, 1].
struct FaultSpec {
  std::vector<FaultEvent> scripted;
  bool rand = false;
  FaultRandSpec rand_spec{};
  bool churn = false;
  FaultChurnSpec churn_spec{};
  std::vector<FaultDomain> domains;
  bool enabled() const noexcept { return rand || churn || !scripted.empty(); }
};

/// Parse a --faults argument. Returns false with *err set on a malformed
/// spec: a value outside its key's range, an unknown kind or key, no
/// category enabled, an empty window, empty, duplicate or overlapping
/// domains, a domain event naming an undefined domain.
bool parse_fault_spec(std::string_view arg, FaultSpec* out, std::string* err);

/// Materialize the spec's events: scripted events verbatim, random events
/// drawn from rng.fork("fault-plan") in a fixed category order (so adding a
/// category never perturbs the draws of existing ones), targets uniform over
/// [0, num_migrations). Sorted by (at, kind, target). Churn events are
/// emitted lazily by the injector, never materialized here.
std::vector<FaultEvent> build_fault_plan(const FaultSpec& spec, const Rng& rng,
                                         std::uint32_t num_migrations);

}  // namespace hm::sim
