// Must not compile. A timer's capture rides in its slot's two words and is
// bit-copied, never destroyed, so Simulator::schedule rejects a capture
// wider than two words and one that is not trivially copyable. The
// timer_capture_budget_rejects_oversized ctest compiles this file with
// -fsyntax-only and expects both static_assert diagnostics.
#include <memory>
#include <utility>

#include "sim/simulator.h"

namespace {

void three_word_capture(hm::sim::Simulator& s, int& a, int& b, int& c) {
  s.schedule(1.0, [pa = &a, pb = &b, pc = &c] { *pa += *pb + *pc; });
}

void move_only_capture(hm::sim::Simulator& s) {
  auto owned = std::make_unique<int>(1);
  s.schedule(1.0, [p = std::move(owned)] { ++*p; });
}

}  // namespace
