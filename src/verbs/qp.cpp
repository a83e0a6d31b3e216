#include "verbs/qp.hpp"

#include "common/log.hpp"
#include "verbs/device.hpp"

namespace dgiwarp::verbs {

QueuePair::QueuePair(Device& dev, ProtectionDomain& pd,
                     CompletionQueue& send_cq, CompletionQueue& recv_cq,
                     u32 qpn, const std::string& mem_category,
                     std::size_t mem_bytes)
    : dev_(dev),
      pd_(pd),
      send_cq_(send_cq),
      recv_cq_(recv_cq),
      qpn_(qpn),
      mem_(dev.host().ledger_ptr(), mem_category,
           static_cast<i64>(mem_bytes)) {}

QueuePair::~QueuePair() = default;

Status QueuePair::post_recv(RecvWr wr) {
  if (state_ == QpState::kError)
    return Status(Errc::kInvalidArgument, "QP in error state");
  if (rq_.size() >= rq_capacity_)
    return Status(Errc::kResourceExhausted, "receive queue full");
  dev_.host().cpu().charge(dev_.host().costs().verbs_post_fixed,
                           {telemetry::CostLayer::kVerbs,
                            telemetry::CostActivity::kPost, 0});
  rq_.push_back(wr);
  return Status::Ok();
}

std::optional<RecvWr> QueuePair::take_recv() {
  if (rq_.empty()) return std::nullopt;
  RecvWr wr = rq_.front();
  rq_.pop_front();
  return wr;
}

void QueuePair::set_error(const Status& why) {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  DGI_DEBUG("qp", "QP %u -> Error (%s)", qpn_, why.to_string().c_str());
  // Flush outstanding receives with error completions so the application
  // can recover its buffers.
  while (auto wr = take_recv()) {
    Completion c;
    c.wr_id = wr->wr_id;
    c.status = Status(Errc::kConnectionReset, "QP flushed");
    c.opcode = WcOpcode::kRecv;
    c.qpn = qpn_;
    recv_cq_.push(std::move(c));
  }
}

void QueuePair::complete_send(u64 wr_id, WcOpcode op, std::size_t bytes,
                              Status status, bool signaled, u64 span,
                              bool ends_span) {
  if (!signaled && status.ok()) return;
  Completion c;
  c.wr_id = wr_id;
  c.status = status;
  c.opcode = op;
  c.byte_len = bytes;
  c.qpn = qpn_;
  c.span = span;
  c.ends_span = ends_span;
  // The completion becomes visible when the CPU finishes the posting work
  // already charged; schedule at the current CPU horizon.
  auto& cpu = dev_.host().cpu();
  auto& cq = send_cq_;
  cpu.charge_then(0, [&cq, c = std::move(c)]() mutable { cq.push(std::move(c)); });
}

void QueuePair::complete_recv(Completion c) {
  c.qpn = qpn_;
  auto& cpu = dev_.host().cpu();
  auto& cq = recv_cq_;
  cpu.charge_then(0, [&cq, c = std::move(c)]() mutable { cq.push(std::move(c)); });
}

}  // namespace dgiwarp::verbs
