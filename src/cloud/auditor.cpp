#include "cloud/auditor.h"

#include "cloud/fault_injector.h"

namespace hm::cloud {

Auditor::Auditor(sim::Simulator& sim, Middleware& mw, double check_interval_s,
                 double progress_deadline_s)
    : sim_(sim),
      mw_(mw),
      interval_s_(check_interval_s),
      deadline_s_(progress_deadline_s) {}

void Auditor::arm() {
  sim_.schedule(interval_s_, [this] { tick(); });
}

void Auditor::tick() {
  const double now = sim_.now();
  // Register watches from the persistent session list, not just the attempts
  // currently in flight: a migration stuck *between* attempts (retry backoff,
  // waiting for a crashed endpoint to reboot) has no active session, and that
  // stall is precisely what the watchdog exists to catch. Watches are keyed
  // by record, so a migration's attempts collapse into one watch whose
  // endpoint attribution tracks the latest attempt.
  for (const auto& s : mw_.sessions()) {
    const core::MigrationRecord& rec = s->record();
    if (rec.t_source_released > 0 || rec.abandoned) continue;
    Watch& w = watches_[&rec];
    w.src = s->source_node();
    w.dst = s->destination_node();
  }
  for (auto it = watches_.begin(); it != watches_.end();) {
    const core::MigrationRecord& rec = *it->first;
    if (rec.t_source_released > 0 || rec.abandoned) {
      it = watches_.erase(it);  // done: off the watch list
      continue;
    }
    ++checks_;
    Watch& w = it->second;
    const Sig sig{rec.memory_bytes_sent,
                  rec.storage_chunks_pushed,
                  rec.storage_chunks_pulled,
                  rec.downtime_s,
                  rec.t_control_transfer,
                  rec.memory_rounds,
                  rec.retries};
    // An open fault window on either endpoint (or a repository outage)
    // legitimately stalls the migration: the deadline clock restarts when
    // the excuse closes. Excuses come only from the injector's attribution
    // — a stall with no injected cause is never excused.
    const bool excused =
        injector_ != nullptr &&
        (injector_->node_excused(w.src) || injector_->node_excused(w.dst) ||
         injector_->repo_disrupted());
    if (!(sig == w.sig) || excused) {
      w.sig = sig;
      w.last_progress_at = now;
      w.flagged = false;
    } else if (!w.flagged && now - w.last_progress_at > deadline_s_) {
      w.flagged = true;
      flag("liveness: migration of VM " + std::to_string(rec.vm_id) +
           " made no progress since t=" + std::to_string(w.last_progress_at) +
           " s with no open fault excuse");
    }
    ++it;
  }
  // Self-rescheduling: the experiment loop exits on its completion
  // predicate, not on queue drain, so the perpetual tick never wedges a run.
  sim_.schedule(interval_s_, [this] { tick(); });
}

void Auditor::check_adoption(const storage::ChunkStore& store,
                             const util::DirtyBitmap& valid, int vm_id) {
  ++checks_;
  std::uint64_t missing = 0, first_bad = 0;
  valid.for_each_set([&](std::uint64_t c) {
    if (!store.present(static_cast<storage::ChunkId>(c))) {
      if (missing == 0) first_bad = c;
      ++missing;
    }
  });
  if (missing > 0)
    flag("conservation: retry for VM " + std::to_string(vm_id) + " adopts " +
         std::to_string(missing) + " valid-marked chunk(s) absent from the salvaged " +
         "replica (first: chunk " + std::to_string(first_bad) + ")");
}

void Auditor::check_completion(const core::StorageMigrationSession& session,
                               double chunk_bytes) {
  ++checks_;
  const storage::ChunkStore* src = session.source_store();
  const storage::ChunkStore* dst = session.destination_store();
  const core::MigrationRecord& rec = session.record();
  if (src != nullptr && dst != nullptr) {
    // Every chunk the source modified must have made it to the destination
    // replica by the time the source is released — salvaged + retransferred
    // + fresh transfers together account for the whole replica. A chunk
    // overwritten by the destination after control transfer is exempt: the
    // authoritative data originates there, and its local write may still be
    // in flight on the host bus at the release instant.
    const util::DirtyBitmap* superseded = session.superseded_chunks();
    std::uint64_t missing = 0, first_bad = 0;
    src->for_each_modified([&](storage::ChunkId c) {
      if (superseded != nullptr && superseded->test(c)) return;
      if (!dst->present(c)) {
        if (missing == 0) first_bad = c;
        ++missing;
      }
    });
    if (missing > 0)
      flag("conservation: migration of VM " + std::to_string(rec.vm_id) +
           " completed with " + std::to_string(missing) +
           " source-modified chunk(s) absent at the destination (first: chunk " +
           std::to_string(first_bad) + ")");
  }
  // Retransferred bytes are a subset of the wire work actually performed.
  const double wire = rec.memory_bytes_sent + chunk_bytes * rec.storage_chunks_pushed;
  if (rec.retransferred_bytes > wire + 1e-6)
    flag("conservation: record for VM " + std::to_string(rec.vm_id) +
         " claims retransferred_bytes=" + std::to_string(rec.retransferred_bytes) +
         " exceeding its total wire work " + std::to_string(wire));
}

void Auditor::flag(std::string msg) {
  constexpr std::size_t kMaxViolations = 64;  // keep pathological runs bounded
  if (violations_.size() < kMaxViolations) violations_.push_back(std::move(msg));
}

}  // namespace hm::cloud
