#include "simnet/simulation.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dgiwarp::sim {

void Simulation::at(TimeNs t, Task task) {
  if (t < now_) t = now_;
  std::size_t slot = slots_.size();
  if (free_slots_.empty()) {
    slots_.push_back(std::move(task));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(task);
  }
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key ev = heap_.back();
  heap_.pop_back();
  // Move the task out before running it: the closure and its captures are
  // never copied, and the task may schedule into the slot it vacates.
  // (time, seq) is a strict total order, so the run order is exactly the
  // one any other heap would give.
  Task task = std::move(slots_[ev.slot]);
  slots_[ev.slot] = nullptr;
  free_slots_.push_back(ev.slot);
  advance_clock(ev.time);
  if (observer_) observer_->on_event(ev.time, ev.seq);
  ++executed_;
  task();
  return true;
}

std::size_t Simulation::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  if (!heap_.empty()) {
    std::fprintf(stderr,
                 "Simulation::run: runaway guard hit after %zu events, "
                 "%zu pending at now=%lld ns\n",
                 n, heap_.size(), static_cast<long long>(now_));
    std::abort();
  }
  return n;
}

std::size_t Simulation::run_until(TimeNs t) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.front().time <= t) {
    step();
    ++n;
  }
  if (now_ < t) advance_clock(t);
  return n;
}

bool Simulation::run_while_pending(const std::function<bool()>& done,
                                   TimeNs deadline) {
  while (!done()) {
    if (heap_.empty() || heap_.front().time > deadline) {
      // Timed out: the wait consumed its timeout (callers measure time).
      if (now_ < deadline) advance_clock(deadline);
      return false;
    }
    step();
  }
  return true;
}

}  // namespace dgiwarp::sim
