#include "net/coupled_solver.h"

#include <cmath>

namespace hm::net {

namespace {
constexpr std::uint32_t kNil = 0xffffffffu;
}

CoupledCoordinator::CoupledCoordinator(std::uint32_t shards, FlowNetworkConfig cfg)
    : mirror_(mirror_sim_, cfg), latency_s_(cfg.latency_s), mirror_of_(shards) {
  mirror_.set_mirror(true);
}

void CoupledCoordinator::observe(double t_star,
                                 const std::vector<double>& shard_completion_t) {
  double p = -1.0;
  for (const double t : shard_completion_t)
    if (t >= 0.0 && (p < 0.0 || t < p)) p = t;
  if (p != ctimer_t_) {
    // The minimum live projection changed while the previous instant ran —
    // exactly when a single-shard schedule_completion would have cancelled
    // and re-armed its one timer.
    ctimer_t_ = p;
    ctimer_set_t_ = prev_t_;
  }
  prev_t_ = t_star;
}

int CoupledCoordinator::reduce(
    double t_star, std::vector<ShardDelta>& deltas,
    std::vector<std::vector<std::pair<std::uint32_t, double>>>& rates_out) {
  bool has_rm = false, has_add = false;
  for (const ShardDelta& d : deltas) {
    has_rm |= !d.removes.empty();
    has_add |= !d.adds.empty();
  }
  if (!has_rm && !has_add) return 0;
  // Single-shard epoch structure at a mixed instant (see header): two solves
  // iff the completion timer's event ran before the arrivals' begin events,
  // i.e. the timer was (re)scheduled strictly before t_star - latency. The
  // FP-exact form of that comparison reconstructs the begin-leg launch time
  // the way start_leg computed it (launch + latency == t_star).
  const bool split = has_rm && has_add && ctimer_t_ == t_star &&
                     ctimer_set_t_ + latency_s_ < t_star;
  int epochs = 0;
  if (split) {
    apply_epoch(deltas, /*removals=*/true, /*adds=*/false, rates_out);
    apply_epoch(deltas, /*removals=*/false, /*adds=*/true, rates_out);
    epochs = 2;
  } else {
    apply_epoch(deltas, /*removals=*/true, /*adds=*/true, rates_out);
    epochs = 1;
  }
  mirror_epochs_ += epochs;
  return epochs;
}

void CoupledCoordinator::apply_epoch(
    std::vector<ShardDelta>& deltas, bool removals, bool adds,
    std::vector<std::vector<std::pair<std::uint32_t, double>>>& rates_out) {
  const std::uint32_t n = static_cast<std::uint32_t>(deltas.size());
  // Removals before adds so a shard slot recycled within the round maps to
  // its new mirror flow; both passes walk shards in fixed order, so the
  // mirror's slot allocation — and with it the solver's canonical slot
  // order — is a pure function of the delta content.
  if (removals) {
    for (std::uint32_t s = 0; s < n; ++s) {
      for (const std::uint32_t lslot : deltas[s].removes) {
        const std::uint32_t m = mirror_of_[s][lslot];
        mirror_.mirror_remove_flow(m);
        mirror_of_[s][lslot] = kNil;
      }
      deltas[s].removes.clear();
    }
  }
  if (adds) {
    for (std::uint32_t s = 0; s < n; ++s) {
      for (const FlowNetwork::CoupledAdd& a : deltas[s].adds) {
        const std::uint32_t m = mirror_.mirror_add_flow(a.src, a.dst, a.bytes, a.cap);
        if (mirror_of_[s].size() <= a.slot) mirror_of_[s].resize(a.slot + 1, kNil);
        mirror_of_[s][a.slot] = m;
        if (owner_of_.size() <= m) owner_of_.resize(m + 1);
        owner_of_[m] = {s, a.slot};
      }
      deltas[s].adds.clear();
    }
  }
  mirror_.mirror_solve();
  for (std::size_t i = 0; i < mirror_.solved_item_count(); ++i) {
    const auto [m, rate] = mirror_.solved_item(i);
    const auto [s, lslot] = owner_of_[m];
    rates_out[s].push_back({lslot, rate});
  }
}

bool CoupledCoordinator::fold_demand_messages(
    const std::vector<sim::ShardMessage>& inbox) {
  for (const sim::ShardMessage& m : inbox) {
    const std::uint32_t c = static_cast<std::uint32_t>(m.payload);
    if (demand_total_.size() <= c) demand_total_.resize(c + 1, 0.0);
    demand_total_[c] += m.value;
    ++demand_messages_;
  }
  // The folded totals must equal the mirror's live shared-user counts: the
  // messages and the mirror deltas describe the same churn through two
  // independent channels. (Constraints never mentioned in any message have
  // total 0 and, by the same token, no mirror users.)
  for (std::uint32_t c = 0; c < demand_total_.size(); ++c) {
    if (demand_total_[c] != static_cast<double>(mirror_.shared_user_count(c))) {
      demand_consistent_ = false;
      return false;
    }
  }
  return true;
}

}  // namespace hm::net
