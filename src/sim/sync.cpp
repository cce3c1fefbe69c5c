#include "sim/sync.h"

namespace hm::sim {

// Wake-all primitives drain the intrusive list first, then walk the
// detached chain. The nodes stay valid during the walk because the woken
// continuations are merely pushed onto the simulator's fast lane, not run
// inline.

void Notification::notify_all() {
  for (WaitNode* n = waiters_.drain(); n != nullptr; n = n->next) sim_->post(n->fn, n->a, n->b);
}

void Gate::open() {
  if (open_) return;
  open_ = true;
  for (WaitNode* n = waiters_.drain(); n != nullptr; n = n->next) sim_->post(n->fn, n->a, n->b);
}

void WaitGroup::done() {
  if (count_ > 0) --count_;
  if (count_ == 0) {
    for (WaitNode* n = waiters_.drain(); n != nullptr; n = n->next)
      sim_->post(n->fn, n->a, n->b);
  }
}

void Barrier::release_all() {
  // The final arriver continues synchronously (await_suspend returned
  // false); everyone queued before it — every node but the tail, which is
  // the arriver itself — is woken through the event queue.
  for (WaitNode* n = waiters_.drain(); n != nullptr; n = n->next) {
    if (n->next != nullptr) sim_->post(n->fn, n->a, n->b);
  }
}

}  // namespace hm::sim
