#include "sim/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <tuple>

#include "util/spec.h"

namespace hm::sim {

namespace {

using E = FaultEffect;
using S = FaultScope;
// Indexed by FaultKind.
constexpr FaultKindInfo kKinds[] = {
    {"src-crash", E::kCrash, S::kMigrationSource},
    {"dst-crash", E::kCrash, S::kMigrationDest},
    {"degrade", E::kDegrade, S::kMigrationSource},
    {"flap", E::kFlap, S::kMigrationSource},
    {"slow-recv", E::kSlowReceive, S::kMigrationDest},
    {"repo-outage", E::kOutage, S::kRepository},
    {"node-crash", E::kCrash, S::kNode},
    {"node-degrade", E::kDegrade, S::kNode},
    {"node-flap", E::kFlap, S::kNode},
    {"domain-crash", E::kCrash, S::kDomain},
    {"domain-degrade", E::kDegrade, S::kDomain},
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(FaultKind::kDomainDegrade) + 1);

double clamp_factor(double f) {
  if (!(f > 0.0)) return 1e-3;
  return f > 1.0 ? 1.0 : f;
}

using util::kInf;
using util::kMaxCount;
using util::spec_error;

// EVENT := KIND '@' T ['+' DUR] ['*' FACTOR] ['#' TARGET]
bool parse_event(std::string_view tok, FaultEvent* ev, std::string* err) {
  const std::string grammar = "fault event '" + std::string(tok) + "'";
  const auto at_pos = tok.find('@');
  if (at_pos == std::string_view::npos) return spec_error(grammar, "missing '@TIME'", err);
  const std::string_view kind = tok.substr(0, at_pos);
  const FaultKindInfo* row = std::find_if(std::begin(kKinds), std::end(kKinds),
                                          [&](const FaultKindInfo& r) { return kind == r.name; });
  if (row == std::end(kKinds)) {
    std::string names;
    for (const FaultKindInfo& r : kKinds) names.append(names.empty() ? "" : "|").append(r.name);
    return spec_error(grammar, "unknown fault kind '" + std::string(kind) + "' (" + names + ")",
                      err);
  }
  ev->kind = static_cast<FaultKind>(row - kKinds);
  // One key per modifier, in the order of kMarks.
  constexpr std::string_view kMarks = "@+*#";
  const util::SpecKey keys[] = {
      {"time", &ev->at},
      {"duration", &ev->duration_s, 0, kInf, true},
      {"factor", &ev->factor, -kInf},
      {"target", &ev->target, 0, UINT32_MAX},
  };
  for (std::string_view rest = tok.substr(at_pos); !rest.empty();) {
    const auto next = rest.find_first_of(kMarks.substr(1), 1);
    if (!util::parse_value(grammar, keys[kMarks.find(rest[0])], rest.substr(1, next - 1), err))
      return false;
    rest = next == std::string_view::npos ? std::string_view{} : rest.substr(next);
  }
  ev->factor = clamp_factor(ev->factor);
  return true;
}

bool parse_rand(std::string_view body, FaultRandSpec* rs, std::string* err) {
  constexpr std::string_view kGrammar = "fault rand spec";
  const util::SpecKey keys[] = {
      {"crashes", &rs->crashes, 0, kMaxCount},
      {"dst-crashes", &rs->dst_crashes, 0, kMaxCount},
      {"degrades", &rs->degrades, 0, kMaxCount},
      {"flaps", &rs->flaps, 0, kMaxCount},
      {"slow", &rs->slow, 0, kMaxCount},
      {"outages", &rs->outages, 0, kMaxCount},
      {"from", &rs->from},
      {"span", &rs->span, 0, kInf, true},
      {"dur", &rs->dur, 0, kInf, true},
      {"factor", &rs->factor, -kInf},
  };
  if (!util::parse_keys(kGrammar, body, keys, err)) return false;
  rs->factor = clamp_factor(rs->factor);
  if (rs->crashes == 0 && rs->dst_crashes == 0 && rs->degrades == 0 &&
      rs->flaps == 0 && rs->slow == 0 && rs->outages == 0)
    return spec_error(kGrammar, "enables no category "
                      "(set crashes/dst-crashes/degrades/flaps/slow/outages)", err);
  if (!std::isfinite(rs->from + rs->span))  // fault times are drawn up to it
    return spec_error(kGrammar, "'from' + 'span' must be finite", err);
  return true;
}

bool parse_churn(std::string_view body, FaultChurnSpec* cs, std::string* err) {
  constexpr std::string_view kGrammar = "fault churn spec";
  // MTBF/MTTR means are strictly positive: a zero-mean exponential would
  // fire instantly forever.
  const util::SpecKey keys[] = {
      {"crash-mtbf", &cs->crash_mtbf, 0, kInf, true},
      {"crash-mttr", &cs->crash_mttr, 0, kInf, true},
      {"degrade-mtbf", &cs->degrade_mtbf, 0, kInf, true},
      {"degrade-mttr", &cs->degrade_mttr, 0, kInf, true},
      {"flap-mtbf", &cs->flap_mtbf, 0, kInf, true},
      {"flap-mttr", &cs->flap_mttr, 0, kInf, true},
      {"domain-mtbf", &cs->domain_mtbf, 0, kInf, true},
      {"domain-mttr", &cs->domain_mttr, 0, kInf, true},
      {"factor", &cs->factor, -kInf},
      {"from", &cs->from},
      {"until", &cs->until, 0, kInf, true},
      {"nodes", &cs->nodes, 0, kMaxCount},
  };
  if (!util::parse_keys(kGrammar, body, keys, err)) return false;
  cs->factor = clamp_factor(cs->factor);
  if (cs->crash_mtbf <= 0 && cs->degrade_mtbf <= 0 && cs->flap_mtbf <= 0 &&
      cs->domain_mtbf <= 0)
    return spec_error(kGrammar, "enables no category "
                      "(set crash-mtbf/degrade-mtbf/flap-mtbf/domain-mtbf)", err);
  if (cs->until > 0 && cs->until <= cs->from)
    return spec_error(kGrammar, "'until' must exceed 'from'", err);
  return true;
}

// DOMAINS := "domains:" NAME '=' RANGE ('+' RANGE)* (',' NAME '=' ...)*
bool parse_domains(std::string_view body, std::vector<FaultDomain>* out, std::string* err) {
  const bool ok = util::for_each_item(body, ',', [&](std::string_view def) {
    const auto eq = def.find('=');
    if (eq == std::string_view::npos)
      return spec_error("fault domains", "expected NAME=RANGE, got '" + std::string(def) + "'",
                        err);
    FaultDomain dom;
    dom.name = std::string(def.substr(0, eq));
    const std::string grammar = "fault domain '" + dom.name + "'";
    if (dom.name.empty()) return spec_error(grammar, "has an empty name", err);
    for (const auto& prev : *out)
      if (prev.name == dom.name) return spec_error(grammar, "is defined twice", err);
    std::uint32_t lo = 0, hi = 0;
    const util::SpecKey ids[] = {{"node id", &lo, 0, kMaxCount - 1},
                                 {"node id", &hi, 0, kMaxCount - 1}};
    const bool ranges_ok = util::for_each_item(def.substr(eq + 1), '+', [&](std::string_view r) {
      const auto dash = r.find('-');
      if (!util::parse_value(grammar, ids[0], r.substr(0, dash), err)) return false;
      hi = lo;
      if (dash != std::string_view::npos &&
          !util::parse_value(grammar, ids[1], r.substr(dash + 1), err))
        return false;
      if (hi < lo)
        return spec_error(grammar, "has an inverted range '" + std::string(r) + "'", err);
      // Ids lie below kMaxCount, so a longer member list repeats one.
      if (dom.nodes.size() + (hi - lo) >= kMaxCount)
        return spec_error(grammar, "repeats a node id", err);
      for (std::uint32_t n = lo; n <= hi; ++n) dom.nodes.push_back(n);
      return true;
    });
    if (!ranges_ok) return false;
    if (dom.nodes.empty()) return spec_error(grammar, "has no member nodes", err);
    std::sort(dom.nodes.begin(), dom.nodes.end());
    if (std::adjacent_find(dom.nodes.begin(), dom.nodes.end()) != dom.nodes.end())
      return spec_error(grammar, "repeats a node id", err);
    // Domains are disjoint: one node cannot belong to two racks.
    for (const auto& prev : *out)
      for (const std::uint32_t n : dom.nodes)
        if (std::binary_search(prev.nodes.begin(), prev.nodes.end(), n))
          return spec_error(grammar, "shares node " + std::to_string(n) + " with fault domain '" +
                                         prev.name + "'", err);
    out->push_back(std::move(dom));
    return true;
  });
  if (ok && out->empty()) return spec_error("fault domains", "section is empty", err);
  return ok;
}

}  // namespace

const FaultKindInfo& fault_kind_info(FaultKind k) noexcept {
  return kKinds[static_cast<std::size_t>(k)];
}

bool parse_fault_spec(std::string_view arg, FaultSpec* out, std::string* err) {
  constexpr std::string_view kGrammar = "fault spec";
  *out = FaultSpec{};
  if (arg.rfind("faults:", 0) == 0) arg = arg.substr(7);
  if (arg.empty() || arg == "none") return true;
  // A trailing ";domains:..." section may follow any body form.
  const auto dom_pos = arg.find("domains:");
  if (dom_pos != std::string_view::npos) {
    if (dom_pos != 0 && arg[dom_pos - 1] != ';')
      return spec_error(kGrammar, "'domains:' section must follow a ';'", err);
    if (!parse_domains(arg.substr(dom_pos + 8), &out->domains, err)) return false;
    arg = arg.substr(0, dom_pos == 0 ? 0 : dom_pos - 1);
  }
  if (arg.rfind("rand:", 0) == 0) {
    out->rand = true;
    if (!parse_rand(arg.substr(5), &out->rand_spec, err)) return false;
  } else if (arg.rfind("churn:", 0) == 0) {
    out->churn = true;
    if (!parse_churn(arg.substr(6), &out->churn_spec, err)) return false;
  } else {
    if (!util::for_each_item(arg, ';', [&](std::string_view tok) {
          return parse_event(tok, &out->scripted.emplace_back(), err);
        }))
      return false;
    if (out->scripted.empty() && out->domains.empty())
      return spec_error(kGrammar, "lists no event", err);
  }
  for (const FaultEvent& ev : out->scripted) {
    if (fault_kind_info(ev.kind).scope == FaultScope::kDomain && ev.target >= out->domains.size())
      return spec_error(kGrammar, std::string("scripted '") + fault_kind_info(ev.kind).name +
                                      "' targets domain #" + std::to_string(ev.target) +
                                      " but only " + std::to_string(out->domains.size()) +
                                      " domain(s) are defined", err);
  }
  if (out->churn && out->churn_spec.domain_mtbf > 0 && out->domains.empty())
    return spec_error(kGrammar, "churn sets domain-mtbf but no 'domains:' section is defined",
                      err);
  return true;
}

std::vector<FaultEvent> build_fault_plan(const FaultSpec& spec, const Rng& rng,
                                         std::uint32_t num_migrations) {
  std::vector<FaultEvent> events = spec.scripted;
  if (spec.rand) {
    Rng r = rng.fork("fault-plan");
    const FaultRandSpec& rs = spec.rand_spec;
    // Fixed category order: adding a category at the end never perturbs the
    // draws consumed by earlier ones.
    const struct {
      FaultKind kind;
      std::uint32_t count;
    } cats[] = {
        {FaultKind::kSourceCrash, rs.crashes},
        {FaultKind::kDestCrash, rs.dst_crashes},
        {FaultKind::kLinkDegrade, rs.degrades},
        {FaultKind::kLinkFlap, rs.flaps},
        {FaultKind::kSlowReceiver, rs.slow},
        {FaultKind::kRepoOutage, rs.outages},
    };
    for (const auto& cat : cats) {
      for (std::uint32_t i = 0; i < cat.count; ++i) {
        FaultEvent ev;
        ev.kind = cat.kind;
        ev.at = r.uniform_real(rs.from, rs.from + rs.span);
        ev.duration_s = std::max(0.5, r.exponential(rs.dur));
        ev.factor = rs.factor;
        ev.target = num_migrations > 0
                        ? static_cast<std::uint32_t>(r.uniform(num_migrations))
                        : 0;
        events.push_back(ev);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(), [](const FaultEvent& a, const FaultEvent& b) {
    return std::tie(a.at, a.kind, a.target) < std::tie(b.at, b.kind, b.target);
  });
  return events;
}

}  // namespace hm::sim
