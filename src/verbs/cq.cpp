#include "verbs/cq.hpp"

#include "common/log.hpp"

namespace dgiwarp::verbs {

CompletionQueue::CompletionQueue(host::Host& host, std::size_t capacity)
    : host_(host),
      capacity_(capacity),
      completions_(host.sim().telemetry().counter("verbs.cq.completions")),
      overruns_(host.sim().telemetry().counter("verbs.cq.overruns")) {}

void CompletionQueue::push(Completion c) {
  auto& reg = host_.sim().telemetry();
  if (q_.size() >= capacity_) {
    overruns_.inc();
    reg.trace().record(telemetry::TraceKind::kCqOverrun, c.wr_id,
                       static_cast<u64>(capacity_));
    // The message's lifecycle ends here even though the application never
    // sees the completion — close the span as not-completed.
    if (c.span && c.ends_span) reg.spans().end(c.span, /*completed=*/false);
    DGI_WARN("cq", "completion queue overrun (capacity %zu)", capacity_);
    return;
  }
  q_.push_back(std::move(c));
  if (!depth_hist_) depth_hist_ = &reg.histogram("verbs.cq.depth");
  depth_hist_->add(static_cast<double>(q_.size()));
  completions_.inc();
  reg.trace().record(telemetry::TraceKind::kCqCompletion, q_.back().wr_id,
                     static_cast<u64>(q_.back().byte_len));
  // Terminal hop of the message lifecycle: the completion reaching the CQ.
  // Only the completion that finishes the message stages/ends the span —
  // a source-side send completion staging kCqComplete would smear an
  // unrelated interval into the breakdown.
  if (q_.back().span && q_.back().ends_span) {
    reg.spans().stage(q_.back().span, telemetry::Stage::kCqComplete,
                      q_.back().wr_id, q_.back().byte_len);
    reg.spans().end(q_.back().span, q_.back().status.ok());
  }
  if (on_event_) on_event_();
}

std::optional<Completion> CompletionQueue::poll() {
  host_.cpu().charge(host_.costs().cq_poll_fixed,
                     {telemetry::CostLayer::kVerbs,
                      telemetry::CostActivity::kPoll, 0});
  if (q_.empty()) return std::nullopt;
  Completion c = std::move(q_.front());
  q_.pop_front();
  return c;
}

std::vector<Completion> CompletionQueue::poll(std::size_t max) {
  host_.cpu().charge(host_.costs().cq_poll_fixed,
                     {telemetry::CostLayer::kVerbs,
                      telemetry::CostActivity::kPoll, 0});
  std::vector<Completion> out;
  while (out.size() < max && !q_.empty()) {
    out.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  return out;
}

std::optional<Completion> CompletionQueue::wait(TimeNs timeout) {
  const TimeNs deadline = host_.sim().now() + timeout;
  host_.sim().run_while_pending([this] { return !q_.empty(); }, deadline);
  return poll();
}

}  // namespace dgiwarp::verbs
