// Completion queues.
//
// The paper stresses that on an unreliable transport "it is essential that
// the completion queue be polled with a defined timeout period" — an
// expected completion may simply never arrive. wait() implements exactly
// that: it advances the simulation until a completion is available or the
// virtual-time timeout expires.
#pragma once

#include <memory>
#include <optional>

#include "common/lazy_deque.hpp"
#include "hoststack/host.hpp"
#include "verbs/wr.hpp"

namespace dgiwarp::verbs {

/// A CQ that a QP completes into comes from Device::create_cq, whose
/// caller owns the shared_ptr it returns: a completion already scheduled
/// on the CPU model holds its CQ until it lands, so the owner can release
/// a CQ while completions are still on their way to it.
class CompletionQueue : public std::enable_shared_from_this<CompletionQueue> {
 public:
  CompletionQueue(host::Host& host, std::size_t capacity);

  /// Enqueue a completion (stack-internal). Overflow drops and counts —
  /// like a real CQ overrun, which is an application sizing bug.
  void push(Completion c);

  /// CQ event channel: `h` runs after each push (the analogue of a
  /// completion-event notification). Consumers typically poll from it.
  void set_event_handler(std::function<void()> h) {
    on_event_ = std::move(h);
  }

  /// Non-blocking poll of one completion. Charges the poll cost.
  std::optional<Completion> poll();

  /// Poll up to `max` completions.
  std::vector<Completion> poll(std::size_t max);

  /// Blocking poll with timeout: advances the simulation until a
  /// completion is available or `timeout` of virtual time has passed.
  std::optional<Completion> wait(TimeNs timeout);

  bool empty() const { return q_.empty(); }
  std::size_t depth() const { return q_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  host::Host& host_;
  std::size_t capacity_;
  LazyDeque<Completion> q_;
  std::function<void()> on_event_;
  telemetry::Counter& completions_;
  telemetry::Counter& overruns_;
  // verbs.cq.depth, fetched on the first completion (the key's first use).
  telemetry::Histogram* depth_hist_ = nullptr;
};

}  // namespace dgiwarp::verbs
