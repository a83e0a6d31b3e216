#include "simnet/simulation.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace dgiwarp::sim {

// The pending keys form a radix heap over base_, the time of the last pop.
// A key's bucket depends only on its time and base_, so every key at base_
// is in bucket 0, and every key in bucket b is earlier than every key in a
// higher bucket. at() clamps to now() >= base_, so no key is ever filed
// below base_. Keys enter a bucket in seq order: at() appends the largest
// seq so far, and a redistribution empties one bucket into lower ones
// that are all empty, keeping its order. Bucket 0 is therefore in seq
// order, and popping its front gives exactly the (time, seq) order of a
// comparison heap.
int Simulation::bucket_of(TimeNs t) const {
  return std::bit_width(static_cast<u64>(t ^ base_));
}

void Simulation::file(const Key& k) {
  const int b = bucket_of(k.time);
  const u64 bit = u64{1} << b;
  if (!(occupied_ & bit) || k.time < bucket_min_[b]) bucket_min_[b] = k.time;
  occupied_ |= bit;
  buckets_[b].push_back(k);
}

Simulation::Key Simulation::pop() {
  if (!(occupied_ & 1)) {
    // Bucket 0 is empty, so the least key is in the lowest occupied
    // bucket. Its least time becomes base_, and relative to it each of
    // its keys falls in a lower bucket (the least ones in bucket 0);
    // every higher bucket keeps its keys, which still differ from the
    // new base_ in the same highest bit.
    const int b = std::countr_zero(occupied_);
    occupied_ &= ~(u64{1} << b);
    base_ = bucket_min_[b];
    std::vector<Key> from = std::move(buckets_[b]);
    for (const Key& k : from) file(k);
    // Past kKeepKeys the storage is freed, so the buckets together hold
    // about what the pending keys need, not the sum of each one's peak.
    if (from.capacity() <= kKeepKeys) {
      from.clear();
      buckets_[b] = std::move(from);
    }
  }
  std::vector<Key>& zero = buckets_[0];
  const Key k = zero[head_++];
  if (head_ == zero.size()) {
    zero.clear();
    head_ = 0;
    occupied_ &= ~u64{1};
  } else if (head_ >= kKeepKeys && 2 * head_ >= zero.size()) {
    // Tasks that keep scheduling at now() keep bucket 0 from draining;
    // dropping the consumed prefix bounds it by the keys still waiting.
    zero.erase(zero.begin(),
               zero.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  --pending_;
  return k;
}

TimeNs Simulation::next_time() const {
  return (occupied_ & 1) ? base_ : bucket_min_[std::countr_zero(occupied_)];
}

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
  file(Key{t, next_seq_++, slot});
  ++pending_;
}

bool Simulation::step() {
  if (pending_ == 0) return false;
  const Key ev = pop();
  // Move the task out before running it: the closure and its captures are
  // never copied, and the task may schedule into the slot it vacates.
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
  if (pending_ != 0) {
    std::fprintf(stderr,
                 "Simulation::run: runaway guard hit after %zu events, "
                 "%zu pending at now=%lld ns\n",
                 n, pending_, static_cast<long long>(now_));
    std::abort();
  }
  return n;
}

std::size_t Simulation::run_until(TimeNs t) {
  std::size_t n = 0;
  while (pending_ != 0 && next_time() <= t) {
    step();
    ++n;
  }
  if (now_ < t) advance_clock(t);
  return n;
}

bool Simulation::run_while_pending(const std::function<bool()>& done,
                                   TimeNs deadline) {
  while (!done()) {
    if (pending_ == 0 || next_time() > deadline) {
      // Timed out: the wait consumed its timeout (callers measure time).
      if (now_ < deadline) advance_clock(deadline);
      return false;
    }
    step();
  }
  return true;
}

}  // namespace dgiwarp::sim
