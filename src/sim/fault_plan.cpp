#include "sim/fault_plan.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <tuple>

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

bool parse_double(std::string_view s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string buf(s);
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

bool parse_u32(std::string_view s, std::uint32_t* out) {
  double d = 0;
  if (!parse_double(s, &d) || d < 0 || d != static_cast<std::uint32_t>(d))
    return false;
  *out = static_cast<std::uint32_t>(d);
  return true;
}

bool fail(std::string* err, std::string msg) {
  if (err) *err = std::move(msg);
  return false;
}

bool parse_event(std::string_view tok, FaultEvent* ev, std::string* err) {
  const auto at_pos = tok.find('@');
  if (at_pos == std::string_view::npos)
    return fail(err, "fault event '" + std::string(tok) + "' missing '@TIME'");
  const std::string_view kind = tok.substr(0, at_pos);
  const FaultKindInfo* row = std::find_if(std::begin(kKinds), std::end(kKinds),
                                          [&](const FaultKindInfo& r) { return kind == r.name; });
  if (row == std::end(kKinds)) {
    std::string names;
    for (const FaultKindInfo& r : kKinds) names.append(names.empty() ? "" : "|").append(r.name);
    return fail(err, "unknown fault kind '" + std::string(kind) + "' (" + names + ")");
  }
  ev->kind = static_cast<FaultKind>(row - kKinds);
  std::string_view rest = tok.substr(at_pos + 1);
  const auto next_mod = [&] { return rest.find_first_of("+*#"); };
  auto mod = next_mod();
  if (!parse_double(rest.substr(0, mod), &ev->at) || ev->at < 0)
    return fail(err, "bad fault time in '" + std::string(tok) + "'");
  while (mod != std::string_view::npos) {
    const char sep = rest[mod];
    rest = rest.substr(mod + 1);
    mod = next_mod();
    const std::string_view val = rest.substr(0, mod);
    switch (sep) {
      case '+':
        if (!parse_double(val, &ev->duration_s) || ev->duration_s <= 0)
          return fail(err, "bad fault duration in '" + std::string(tok) + "'");
        break;
      case '*':
        if (!parse_double(val, &ev->factor))
          return fail(err, "bad fault factor in '" + std::string(tok) + "'");
        ev->factor = clamp_factor(ev->factor);
        break;
      case '#':
        if (!parse_u32(val, &ev->target))
          return fail(err, "bad fault target in '" + std::string(tok) + "'");
        break;
    }
  }
  return true;
}

bool parse_rand(std::string_view body, FaultRandSpec* rs, std::string* err) {
  while (!body.empty()) {
    const auto comma = body.find(',');
    const std::string_view kv = body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos)
      return fail(err, "fault rand spec expects k=v, got '" + std::string(kv) + "'");
    const std::string_view key = kv.substr(0, eq);
    const std::string_view val = kv.substr(eq + 1);
    bool ok = true;
    if (key == "crashes") ok = parse_u32(val, &rs->crashes);
    else if (key == "dst-crashes") ok = parse_u32(val, &rs->dst_crashes);
    else if (key == "degrades") ok = parse_u32(val, &rs->degrades);
    else if (key == "flaps") ok = parse_u32(val, &rs->flaps);
    else if (key == "slow") ok = parse_u32(val, &rs->slow);
    else if (key == "outages") ok = parse_u32(val, &rs->outages);
    else if (key == "from") ok = parse_double(val, &rs->from) && rs->from >= 0;
    else if (key == "span") ok = parse_double(val, &rs->span) && rs->span > 0;
    else if (key == "dur") ok = parse_double(val, &rs->dur) && rs->dur > 0;
    else if (key == "factor") {
      ok = parse_double(val, &rs->factor);
      rs->factor = clamp_factor(rs->factor);
    } else {
      return fail(err, "unknown fault rand key '" + std::string(key) + "'");
    }
    if (!ok)
      return fail(err, "bad value for fault rand key '" + std::string(key) + "'");
  }
  if (rs->crashes == 0 && rs->dst_crashes == 0 && rs->degrades == 0 &&
      rs->flaps == 0 && rs->slow == 0 && rs->outages == 0)
    return fail(err, "fault rand spec enables no category "
                     "(set crashes/dst-crashes/degrades/flaps/slow/outages)");
  return true;
}

bool parse_churn(std::string_view body, FaultChurnSpec* cs, std::string* err) {
  while (!body.empty()) {
    const auto comma = body.find(',');
    const std::string_view kv = body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    const auto eq = kv.find('=');
    if (eq == std::string_view::npos)
      return fail(err, "fault churn spec expects k=v, got '" + std::string(kv) + "'");
    const std::string_view key = kv.substr(0, eq);
    const std::string_view val = kv.substr(eq + 1);
    bool ok = true;
    // MTBF/MTTR means must be strictly positive when supplied: a zero mean
    // exponential would fire instantly forever.
    const auto mean = [&](double* slot) {
      double d = 0;
      if (!parse_double(val, &d) || !(d > 0)) return false;
      *slot = d;
      return true;
    };
    if (key == "crash-mtbf") ok = mean(&cs->crash_mtbf);
    else if (key == "crash-mttr") ok = mean(&cs->crash_mttr);
    else if (key == "degrade-mtbf") ok = mean(&cs->degrade_mtbf);
    else if (key == "degrade-mttr") ok = mean(&cs->degrade_mttr);
    else if (key == "flap-mtbf") ok = mean(&cs->flap_mtbf);
    else if (key == "flap-mttr") ok = mean(&cs->flap_mttr);
    else if (key == "domain-mtbf") ok = mean(&cs->domain_mtbf);
    else if (key == "domain-mttr") ok = mean(&cs->domain_mttr);
    else if (key == "from") ok = parse_double(val, &cs->from) && cs->from >= 0;
    else if (key == "until") ok = parse_double(val, &cs->until) && cs->until > 0;
    else if (key == "nodes") ok = parse_u32(val, &cs->nodes);
    else if (key == "factor") {
      ok = parse_double(val, &cs->factor);
      cs->factor = clamp_factor(cs->factor);
    } else {
      return fail(err, "unknown fault churn key '" + std::string(key) + "'");
    }
    if (!ok)
      return fail(err, "bad value for fault churn key '" + std::string(key) + "'");
  }
  if (cs->crash_mtbf <= 0 && cs->degrade_mtbf <= 0 && cs->flap_mtbf <= 0 &&
      cs->domain_mtbf <= 0)
    return fail(err, "fault churn spec enables no category "
                     "(set crash-mtbf/degrade-mtbf/flap-mtbf/domain-mtbf)");
  if (cs->until > 0 && cs->until <= cs->from)
    return fail(err, "fault churn 'until' must exceed 'from'");
  return true;
}

// DOMAINS := "domains:" NAME '=' RANGE ('+' RANGE)* (',' NAME '=' ...)*
bool parse_domains(std::string_view body, std::vector<FaultDomain>* out,
                   std::string* err) {
  while (!body.empty()) {
    const auto comma = body.find(',');
    const std::string_view def = body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    const auto eq = def.find('=');
    if (eq == std::string_view::npos)
      return fail(err, "fault domain expects NAME=RANGE, got '" + std::string(def) + "'");
    FaultDomain dom;
    dom.name = std::string(def.substr(0, eq));
    if (dom.name.empty())
      return fail(err, "fault domain with empty name in '" + std::string(def) + "'");
    for (const auto& prev : *out)
      if (prev.name == dom.name)
        return fail(err, "duplicate fault domain '" + dom.name + "'");
    std::string_view ranges = def.substr(eq + 1);
    if (ranges.empty())
      return fail(err, "fault domain '" + dom.name + "' has no member nodes");
    while (!ranges.empty()) {
      const auto plus = ranges.find('+');
      const std::string_view range = ranges.substr(0, plus);
      ranges = plus == std::string_view::npos ? std::string_view{}
                                              : ranges.substr(plus + 1);
      const auto dash = range.find('-');
      std::uint32_t lo = 0, hi = 0;
      if (dash == std::string_view::npos) {
        if (!parse_u32(range, &lo))
          return fail(err, "bad node id '" + std::string(range) + "' in fault domain '" +
                               dom.name + "'");
        hi = lo;
      } else {
        if (!parse_u32(range.substr(0, dash), &lo) ||
            !parse_u32(range.substr(dash + 1), &hi) || hi < lo)
          return fail(err, "bad node range '" + std::string(range) +
                               "' in fault domain '" + dom.name + "'");
      }
      for (std::uint32_t n = lo; n <= hi; ++n) dom.nodes.push_back(n);
    }
    if (dom.nodes.empty())
      return fail(err, "fault domain '" + dom.name + "' has no member nodes");
    std::sort(dom.nodes.begin(), dom.nodes.end());
    if (std::adjacent_find(dom.nodes.begin(), dom.nodes.end()) != dom.nodes.end())
      return fail(err, "fault domain '" + dom.name + "' repeats a node id");
    out->push_back(std::move(dom));
  }
  if (out->empty()) return fail(err, "fault 'domains:' section is empty");
  // Domains are disjoint: one node cannot belong to two racks.
  for (std::size_t i = 0; i < out->size(); ++i)
    for (std::size_t j = i + 1; j < out->size(); ++j)
      for (const std::uint32_t n : (*out)[i].nodes)
        if (std::binary_search((*out)[j].nodes.begin(), (*out)[j].nodes.end(), n))
          return fail(err, "node " + std::to_string(n) + " belongs to fault domains '" +
                               (*out)[i].name + "' and '" + (*out)[j].name + "'");
  return true;
}

bool validate_spec(const FaultSpec& spec, std::string* err) {
  for (const FaultEvent& ev : spec.scripted) {
    if (fault_kind_info(ev.kind).scope == FaultScope::kDomain &&
        ev.target >= spec.domains.size())
      return fail(err, std::string("scripted '") + fault_kind_info(ev.kind).name +
                           "' targets domain #" + std::to_string(ev.target) + " but only " +
                           std::to_string(spec.domains.size()) + " domain(s) are defined");
  }
  if (spec.churn && spec.churn_spec.domain_mtbf > 0 && spec.domains.empty())
    return fail(err, "fault churn sets domain-mtbf but no 'domains:' section is defined");
  return true;
}

}  // namespace

const FaultKindInfo& fault_kind_info(FaultKind k) noexcept {
  return kKinds[static_cast<std::size_t>(k)];
}

bool parse_fault_spec(std::string_view arg, FaultSpec* out, std::string* err) {
  *out = FaultSpec{};
  if (arg.rfind("faults:", 0) == 0) arg = arg.substr(7);
  if (arg.empty() || arg == "none") return true;
  // A trailing ";domains:..." section may follow any body form.
  const auto dom_pos = arg.find("domains:");
  if (dom_pos != std::string_view::npos) {
    if (dom_pos != 0 && arg[dom_pos - 1] != ';')
      return fail(err, "fault 'domains:' section must follow a ';'");
    if (!parse_domains(arg.substr(dom_pos + 8), &out->domains, err)) return false;
    arg = arg.substr(0, dom_pos == 0 ? 0 : dom_pos - 1);
  }
  if (arg.rfind("rand:", 0) == 0) {
    out->rand = true;
    if (!parse_rand(arg.substr(5), &out->rand_spec, err)) return false;
    return validate_spec(*out, err);
  }
  if (arg.rfind("churn:", 0) == 0) {
    out->churn = true;
    if (!parse_churn(arg.substr(6), &out->churn_spec, err)) return false;
    return validate_spec(*out, err);
  }
  while (!arg.empty()) {
    const auto semi = arg.find(';');
    const std::string_view tok = arg.substr(0, semi);
    arg = semi == std::string_view::npos ? std::string_view{} : arg.substr(semi + 1);
    if (tok.empty()) continue;
    FaultEvent ev{};
    if (!parse_event(tok, &ev, err)) return false;
    out->scripted.push_back(ev);
  }
  if (arg.empty() && out->scripted.empty() && out->domains.empty())
    return fail(err, "empty fault spec");
  return validate_spec(*out, err);
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
