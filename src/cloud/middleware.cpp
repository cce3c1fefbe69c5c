#include "cloud/middleware.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "cloud/auditor.h"

namespace hm::cloud {

Middleware::Middleware(sim::Simulator& sim, vm::Cluster& cluster, core::Approach approach,
                       ApproachConfig cfg)
    : sim_(sim), cluster_(cluster), approach_(approach), cfg_(cfg) {
  if (approach_ == core::Approach::kPvfsShared && cluster_.pvfs() == nullptr) {
    throw std::invalid_argument(
        "pvfs-shared approach requires a cluster with enable_pvfs=true");
  }
}

vm::VmInstance& Middleware::deploy(net::NodeId node, vm::VmConfig vm_cfg) {
  return deploy(node, std::move(vm_cfg), next_vm_id_);
}

vm::VmInstance& Middleware::deploy(net::NodeId node, vm::VmConfig vm_cfg, int vm_id) {
  auto slot = std::make_unique<VmSlot>();
  const int id = vm_id;
  next_vm_id_ = std::max(next_vm_id_, id + 1);
  storage::BlockBackend* backend = nullptr;
  if (approach_ == core::Approach::kPvfsShared) {
    slot->pvfs_backend = std::make_unique<storage::PvfsBackend>(
        *cluster_.pvfs(), cluster_.config().image, node);
    // PVFS client I/O burns host CPU on whichever node the VM runs on.
    slot->pvfs_backend->set_cpu_load_hook(
        [this](net::NodeId n, double delta) { cluster_.node(n).add_cpu_load(delta); });
    backend = slot->pvfs_backend.get();
  } else {
    slot->mgr = std::make_unique<core::MigrationManager>(sim_, cluster_, node, id);
    backend = slot->mgr.get();
  }
  slot->vm = std::make_unique<vm::VmInstance>(sim_, cluster_, node, id, *backend, vm_cfg);
  slots_.push_back(std::move(slot));
  return *slots_.back()->vm;
}

core::MigrationManager* Middleware::manager_of(const vm::VmInstance& vm) noexcept {
  for (auto& s : slots_)
    if (s->vm.get() == &vm) return s->mgr.get();
  return nullptr;
}

std::unique_ptr<core::StorageMigrationSession> Middleware::make_session(
    VmSlot& slot, net::NodeId dst, core::MigrationRecord& rec) {
  switch (approach_) {
    case core::Approach::kHybrid:
      return std::make_unique<core::HybridSession>(sim_, cluster_, slot.mgr.get(), dst,
                                                   rec, cfg_.hybrid);
    case core::Approach::kPostcopy: {
      core::HybridConfig passive = cfg_.hybrid;
      passive.push_enabled = false;
      return std::make_unique<core::HybridSession>(sim_, cluster_, slot.mgr.get(), dst,
                                                   rec, passive);
    }
    case core::Approach::kPrecopy:
      return std::make_unique<core::PrecopySession>(sim_, cluster_, slot.mgr.get(), dst,
                                                    rec);
    case core::Approach::kMirror:
      return std::make_unique<core::MirrorSession>(sim_, cluster_, slot.mgr.get(), dst,
                                                   rec);
    case core::Approach::kPvfsShared:
      return std::make_unique<core::SharedSession>(sim_, cluster_, *slot.pvfs_backend,
                                                   dst, rec);
  }
  throw std::logic_error("unknown approach");
}

void Middleware::on_node_down(net::NodeId n) {
  for (auto* s : active_sessions_)
    if (!s->control_transferred() &&
        (s->source_node() == n || s->destination_node() == n))
      s->abort();
}

core::StorageMigrationSession* Middleware::active_session_for(
    const core::MigrationRecord& rec) noexcept {
  for (auto* s : active_sessions_)
    if (&s->record() == &rec) return s;
  return nullptr;
}

sim::Task Middleware::migrate_attempt(vm::VmInstance& vm, net::NodeId dst,
                                      core::MigrationRecord& rec, bool* completed) {
  VmSlot* slot = nullptr;
  for (auto& s : slots_)
    if (s->vm.get() == &vm) slot = s.get();
  assert(slot != nullptr);

  const double chunk_bytes = cluster_.config().image.chunk_bytes;
  *completed = false;

  sessions_.push_back(make_session(*slot, dst, rec));
  core::StorageMigrationSession& session = *sessions_.back();
  active_sessions_.push_back(&session);
  if (slot->mgr != nullptr) adopt_salvage(*slot->mgr, session, vm.id());

  const double mem_base = rec.memory_bytes_sent;
  const double push_base = rec.storage_chunks_pushed;
  // MIGRATION_REQUEST on the source manager (Algorithm 1), then forward the
  // request to the hypervisor, which migrates memory independently.
  if (slot->mgr) slot->mgr->begin_migration(&session);
  session.start();
  co_await vm::Hypervisor::live_migrate(sim_, cluster_.network(), vm, dst, session,
                                        cfg_.hypervisor, rec);
  if (slot->mgr) slot->mgr->end_migration();
  active_sessions_.erase(
      std::find(active_sessions_.begin(), active_sessions_.end(), &session));

  if (!session.aborted()) {
    // The audit reads the stores and the superseded set, so it runs first.
    if (auditor_ != nullptr) auditor_->check_completion(session, chunk_bytes);
    session.release_transfer_state();
    *completed = true;  // done: source released
    co_return;
  }

  // The attempt died before control transfer. Salvage what the destination
  // still holds (lost if the destination itself crashed) and account the
  // wasted wire work; the caller decides whether to retry, requeue or give
  // up.
  ++rec.retries;
  if (rec.t_first_abort == 0) rec.t_first_abort = sim_.now();

  const double salvaged_chunks = slot->mgr != nullptr ? salvage(*slot->mgr, session) : 0;
  rec.salvaged_chunks += salvaged_chunks;
  // The salvage bitmap is built: the session's per-chunk state goes once
  // its push (or background copy) has observed the abort.
  session.release_transfer_state();
  rec.retransferred_bytes +=
      (rec.memory_bytes_sent - mem_base) +
      chunk_bytes *
          std::max(0.0, rec.storage_chunks_pushed - push_base - salvaged_chunks);
}

bool Middleware::keep_resumable(core::MigrationManager::ResumeState& state, net::NodeId dst) {
  if (state.usable_at(cluster_.network(), dst)) return true;
  // In-flight host-bus or flusher work may still reference the replica:
  // park it until teardown instead of destroying it mid-run.
  retired_stores_.push_back(std::move(state.dst_store));
  return false;
}

void Middleware::adopt_salvage(core::MigrationManager& mgr,
                               core::StorageMigrationSession& session, int vm_id) {
  auto resume = std::exchange(mgr.resume_state(), std::nullopt);
  if (!resume || !keep_resumable(*resume, session.destination_node())) return;
  if (auditor_ != nullptr) auditor_->check_adoption(*resume->dst_store, resume->valid, vm_id);
  session.adopt(std::move(*resume));
}

double Middleware::salvage(core::MigrationManager& mgr,
                           core::StorageMigrationSession& session) {
  auto state = session.take_partial_destination();
  if (!state || !keep_resumable(*state, session.destination_node())) return 0;
  const double chunks = static_cast<double>(state->valid.count());
  mgr.resume_state() = std::move(state);
  return chunks;
}

sim::Task Middleware::migrate(vm::VmInstance& vm, net::NodeId dst) {
  auto& net = cluster_.network();
  core::MigrationRecord& rec = metrics_.new_migration(vm.id());
  rec.t_request = sim_.now();

  for (int attempt = 0; attempt < cfg_.max_attempts; ++attempt) {
    bool completed = false;
    co_await migrate_attempt(vm, dst, rec, &completed);
    if (completed) co_return;
    if (attempt + 1 >= cfg_.max_attempts) break;
    co_await net.wait_node_up(vm.node());
    co_await net.wait_node_up(dst);
    co_await sim_.delay(kRetryBackoffS);
  }
  rec.abandoned = true;
}

}  // namespace hm::cloud
