#include "simnet/nic.hpp"

#include "common/log.hpp"

namespace dgiwarp::sim {

void Nic::send(Frame f) {
  if (!tx_) return;
  f.src = addr_;
  if (f.id == 0) f.id = reg_.alloc_frame_id();
  tx_frames_.inc();
  if (f.span)
    reg_.spans().stage(f.span, telemetry::Stage::kNicTx, f.id, f.wire_bytes());
  tx_->transmit(std::move(f));
}

void Nic::deliver(Frame f) {
  if (f.dst != addr_) return;  // not for us
  ++rx_frames_;
  if (rx_) rx_(std::move(f));
}

}  // namespace dgiwarp::sim
