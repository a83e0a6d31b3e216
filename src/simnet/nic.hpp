// Network interface: the attachment point between a host (or switch port)
// and a link. Owns the host-visible address and the receive upcall.
#pragma once

#include <functional>

#include "simnet/link.hpp"
#include "simnet/packet.hpp"

namespace dgiwarp::sim {

class Nic {
 public:
  using RxHandler = std::function<void(Frame)>;

  /// Frame counts go to `reg` (simnet.nic.*), which also allocates
  /// frame ids (per-Simulation ids keep exported traces deterministic within
  /// one process) and takes the kNicTx span stage marks.
  Nic(LinkAddr addr, std::string name, telemetry::Registry& reg)
      : addr_(addr),
        name_(std::move(name)),
        tx_frames_(reg.counter("simnet.nic.tx_frames")),
        reg_(reg) {
    rx_frames_.bind(reg.counter("simnet.nic.rx_frames"));
  }

  LinkAddr addr() const { return addr_; }
  const std::string& name() const { return name_; }

  /// Wire this NIC's egress to `tx` and register our handler as its peer's
  /// ingress. Called by the fabric builder.
  void attach_tx(Link* tx) { tx_ = tx; }

  void set_rx_handler(RxHandler h) { rx_ = std::move(h); }

  /// Transmit a frame (stamps src address and a unique id).
  void send(Frame f);

  /// Ingress entry point (invoked by the link).
  void deliver(Frame f);

  u64 rx_frames() const { return rx_frames_; }

 private:
  LinkAddr addr_;
  std::string name_;
  Link* tx_ = nullptr;
  RxHandler rx_;
  telemetry::Counter& tx_frames_;
  telemetry::Metric rx_frames_;  // this NIC's own count, for tests
  telemetry::Registry& reg_;
};

}  // namespace dgiwarp::sim
