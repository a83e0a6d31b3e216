// Discrete-event simulation core: a virtual clock and an event queue.
//
// The entire reproduction runs inside one Simulation: both end hosts, the
// switch, every protocol timer. All reported latencies/bandwidths are
// virtual time, so results are bit-reproducible for a given seed and are
// independent of the machine running the benchmark (the paper's testbed is
// replaced by the calibrated cost model in hoststack/cost_model.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::sim {

/// Hook into event execution (telemetry, tracing, debuggers).
///
/// Ordering guarantees:
///  * on_event(t, seq) fires once per executed event, AFTER the virtual
///    clock has advanced to `t` and BEFORE the event's task runs — so any
///    metric or trace entry the task produces is stamped with `t`.
///  * Calls are monotonically non-decreasing in `t`; events sharing a
///    timestamp are observed in scheduling order (`seq` is the stable FIFO
///    tie-breaker — assigned at scheduling time, so it increases strictly
///    within a timestamp but not necessarily across timestamps).
///  * The observer is never invoked re-entrantly: a task that schedules new
///    events only causes future on_event calls.
/// Deadline-driven idle advances (run_until / run_while_pending timeouts)
/// move the clock without executing an event and are NOT observed.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_event(TimeNs t, u64 seq) = 0;
};

class Simulation {
 public:
  using Task = std::function<void()>;

  /// Current virtual time.
  TimeNs now() const { return now_; }

  /// Schedule `task` at absolute virtual time `t` (clamped to now()).
  /// Events at equal times run in scheduling order (stable FIFO).
  void at(TimeNs t, Task task);

  /// Schedule `task` `delay` ns from now.
  void after(TimeNs delay, Task task) { at(now_ + delay, std::move(task)); }

  /// Execute the next pending event; returns false if the queue is empty.
  bool step();

  /// Run until the event queue drains. Returns the number of events
  /// executed. `max_events` is a runaway guard: if that many events fire
  /// and some are still pending, the pending count and now() go to stderr
  /// and the process aborts.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Run all events with timestamp <= t, then advance the clock to t.
  std::size_t run_until(TimeNs t);

  /// Run until `done()` returns true, the queue drains, or virtual time
  /// passes `deadline`. Returns true iff `done()` became true.
  bool run_while_pending(const std::function<bool()>& done, TimeNs deadline);

  bool idle() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }
  u64 events_executed() const { return executed_; }

  /// This simulation's metrics/trace registry. Scoped to the Simulation so
  /// per-seed runs stay bit-reproducible; its virtual clock mirror advances
  /// with the event loop, which is how trace events get timestamps without
  /// each layer re-reading now().
  telemetry::Registry& telemetry() { return telemetry_; }
  const telemetry::Registry& telemetry() const { return telemetry_; }

  /// Install an execution observer (nullptr to clear). At most one; see
  /// SimObserver for the ordering guarantees.
  void set_observer(SimObserver* obs) { observer_ = obs; }

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  /// Queue entry: the event's order key and the slot its task waits in.
  /// Trivially copyable, so moving it between buckets never touches a
  /// closure.
  struct Key {
    TimeNs time;
    u64 seq;
    std::size_t slot;
  };

  /// Times are non-negative, so 64 buckets cover them.
  static constexpr int kBuckets = 64;
  /// Storage, in keys, that a bucket keeps when a redistribution empties
  /// it, and the consumed prefix of bucket 0 that is dropped when bucket 0
  /// does not drain.
  static constexpr std::size_t kKeepKeys = 4096;

  /// Bucket of a key at time `t` >= base_: 0 when t == base_, else one
  /// more than the highest bit in which t and base_ differ.
  int bucket_of(TimeNs t) const;
  /// Append `k` to its bucket.
  void file(const Key& k);
  /// Take the least key; pending_ must be non-zero.
  Key pop();
  /// Time of the next key to pop. Reads the cached bucket minimum and
  /// never redistributes, so peeking leaves base_ where it was.
  TimeNs next_time() const;

  void advance_clock(TimeNs t) {
    now_ = t;
    telemetry_.advance_clock(t);
  }

  TimeNs now_ = 0;
  u64 next_seq_ = 0;
  u64 executed_ = 0;
  // Pending events: a radix heap of keys over a slot store of tasks.
  // Bucket 0 holds the keys at base_, the time of the last pop, and is
  // consumed first in, first out from head_; bucket_min_ caches each
  // other bucket's least time; bit b of occupied_ is set iff bucket b
  // holds a key. step() moves a task out of its slot and recycles the
  // slot through free_slots_.
  std::array<std::vector<Key>, kBuckets> buckets_;
  std::array<TimeNs, kBuckets> bucket_min_{};
  std::size_t head_ = 0;
  u64 occupied_ = 0;
  TimeNs base_ = 0;
  std::size_t pending_ = 0;
  std::vector<Task> slots_;
  std::vector<std::size_t> free_slots_;
  telemetry::Registry telemetry_;
  SimObserver* observer_ = nullptr;
};

}  // namespace dgiwarp::sim
