// Ethernet switch. The paper's testbed put a Fujitsu 10GE switch between
// the two hosts; this reproduces its forwarding behaviour (per-port output
// queues, fixed forwarding latency) and extends it with trunk ports — LAG
// groups of parallel cables toward another switch, wired by sim::Topology;
// frames spread across LAG members by a deterministic per-flow hash so one
// flow's frames never reorder.
// The forwarding database (FDB) is programmed, not learned: sim::Topology
// writes each host's port into every switch as the host attaches, so every
// host is known before a frame can name it. Nothing floods: a frame to an
// address no host has is dropped. Invariant: a frame never leaves by the
// port it arrived on.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lazy_deque.hpp"
#include "simnet/link.hpp"
#include "simnet/nic.hpp"

namespace dgiwarp::sim {

class Switch {
 public:
  /// Cut-through forwarding latency.
  static constexpr TimeNs kForwardingLatency = 500;

  Switch(Simulation& sim, Rng& rng, std::string name);

  /// Create a duplex cable between `host` and a fresh switch port.
  /// Returns the port index.
  std::size_t attach(Nic& host, LinkParams params);

  /// Register a trunk port whose egress is the LAG `cables` (this-switch ->
  /// peer-switch links, owned by the topology). Frames arriving FROM the
  /// peer are injected with deliver(). Returns the port index.
  std::size_t add_trunk(std::vector<Link*> cables);

  /// Ingress entry point for trunk ports (invoked by the peer cable's
  /// receiver, wired by sim::Topology).
  void deliver(std::size_t port, Frame f) { on_ingress(port, std::move(f)); }

  /// host -> switch direction of a HOST port's cable (fault injection point
  /// for "drop at the sender's egress", like the paper's tc setup).
  Link& uplink(std::size_t port) { return *ports_[port].up; }
  /// switch -> host direction.
  Link& downlink(std::size_t port) { return *ports_[port].down; }

  const std::string& name() const { return name_; }

  /// Point the FDB entry for `addr` at `port`. sim::Topology programs every
  /// host into every switch this way when the host attaches.
  void program(LinkAddr addr, std::size_t port) { fdb_[addr] = port; }

  u64 frames_forwarded() const { return forwarded_; }
  std::size_t fdb_size() const { return fdb_.size(); }

 private:
  struct Port {
    std::unique_ptr<Link> up;    // host -> switch (host ports only)
    std::unique_ptr<Link> down;  // switch -> host (host ports only)
    std::vector<Link*> egress;   // {down.get()} for hosts; the LAG for trunks
  };

  void on_ingress(std::size_t port, Frame f);
  /// Egress LAG member for `f` on `port`: stable per-flow (src, dst) hash,
  /// so a flow's frames share one cable and stay ordered.
  Link& egress_link(std::size_t port, const Frame& f);

  struct Forwarding {
    Link* out;
    Frame frame;
  };

  Simulation& sim_;
  Rng& rng_;
  std::string name_;
  std::vector<Port> ports_;
  // Frames inside kForwardingLatency, oldest first. Each waits the same
  // fixed delay, so they leave in the order they came and each forwarding
  // event takes the front one.
  LazyDeque<Forwarding> forwarding_;
  std::unordered_map<LinkAddr, std::size_t> fdb_;
  telemetry::Metric forwarded_;
};

}  // namespace dgiwarp::sim
