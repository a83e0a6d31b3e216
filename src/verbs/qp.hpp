// Queue pair base class: receive queue management, completion plumbing and
// the state machine shared by RC and UD QPs.
#pragma once

#include <deque>
#include <memory>

#include "verbs/cq.hpp"
#include "verbs/memory.hpp"

namespace dgiwarp::verbs {

class Device;

class QueuePair {
 public:
  virtual ~QueuePair();

  u32 qpn() const { return qpn_; }
  QpState state() const { return state_; }
  ProtectionDomain& pd() { return pd_; }
  CompletionQueue& send_cq() { return send_cq_; }
  CompletionQueue& recv_cq() { return recv_cq_; }

  /// Post a receive buffer. UD completions against it will report the
  /// datagram source; the buffer must be large enough for any message the
  /// peer may send (a too-small buffer fails the message, not the QP).
  Status post_recv(RecvWr wr);

  /// Post a send-side work request (dispatch differs per QP type).
  virtual Status post_send(const SendWr& wr) = 0;

  /// Error-state transition. Per the paper's relaxed rules, UD QPs only
  /// enter Error on local faults, never because of datagram loss.
  void set_error(const Status& why);

 protected:
  QueuePair(Device& dev, ProtectionDomain& pd, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, u32 qpn, const std::string& mem_category,
            std::size_t mem_bytes);

  /// Pop the next posted receive WR (FIFO, like hardware RQs).
  std::optional<RecvWr> take_recv();

  /// `span`/`ends_span`: lifecycle span attached to the completion (see
  /// Completion). Pass a span with ends_span=true only for the completion
  /// that finishes the message (e.g. an RDMA Read once the response data
  /// has been placed).
  void complete_send(u64 wr_id, WcOpcode op, std::size_t bytes, Status status,
                     bool signaled, u64 span = 0, bool ends_span = false);
  void complete_recv(Completion c);

  Device& dev_;
  ProtectionDomain& pd_;
  CompletionQueue& send_cq_;
  CompletionQueue& recv_cq_;
  QpState state_ = QpState::kInit;
  u32 qpn_;
  std::deque<RecvWr> rq_;
  std::size_t rq_capacity_ = 4096;
  MemCharge mem_;
};

}  // namespace dgiwarp::verbs
