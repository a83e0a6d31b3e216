#include "simnet/switch.hpp"

#include <cassert>
#include <utility>

namespace dgiwarp::sim {

Switch::Switch(Simulation& sim, Rng& rng, std::string name)
    : sim_(sim), rng_(rng), name_(std::move(name)) {
  forwarded_.bind(sim_.telemetry().counter("simnet.switch.frames_forwarded"));
}

std::size_t Switch::attach(Nic& host, LinkParams params) {
  const std::size_t port = ports_.size();
  Port p;
  p.up = std::make_unique<Link>(sim_, rng_, params,
                                host.name() + "->" + name_);
  p.down = std::make_unique<Link>(sim_, rng_, params,
                                  name_ + "->" + host.name());
  p.egress = {p.down.get()};
  ports_.push_back(std::move(p));

  host.attach_tx(ports_[port].up.get());
  ports_[port].up->set_receiver(
      [this, port](Frame f) { on_ingress(port, std::move(f)); });
  ports_[port].down->set_receiver(
      [&host](Frame f) { host.deliver(std::move(f)); });
  return port;
}

std::size_t Switch::add_trunk(std::vector<Link*> cables) {
  assert(!cables.empty());
  const std::size_t port = ports_.size();
  Port p;
  p.egress = std::move(cables);
  ports_.push_back(std::move(p));
  return port;
}

Link& Switch::egress_link(std::size_t port, const Frame& f) {
  const auto& lag = ports_[port].egress;
  if (lag.size() == 1) return *lag[0];
  // Deterministic per-flow spread: Fibonacci-hash the (src, dst) pair so a
  // flow's frames always ride the same LAG member (no intra-flow reorder).
  const u64 flow = (static_cast<u64>(f.src) << 32) | f.dst;
  return *lag[(flow * 0x9E3779B97F4A7C15ull >> 32) % lag.size()];
}

void Switch::on_ingress(std::size_t port, Frame f) {
  // Every host is programmed when it attaches, so a miss means no host has
  // the address: a host answering a forged source, say. It is dropped, as
  // is a frame whose destination lives behind its ingress port (a host
  // addressing itself), which real switches filter rather than reflect.
  const auto it = fdb_.find(f.dst);
  if (it == fdb_.end() || it->second == port) return;
  ++forwarded_;
  Link& out = egress_link(it->second, f);
  forwarding_.push_back(Forwarding{&out, std::move(f)});
  sim_.after(kForwardingLatency, [this] {
    Forwarding next = std::move(forwarding_.front());
    forwarding_.pop_front();
    next.out->transmit(std::move(next.frame));
  });
}

}  // namespace dgiwarp::sim
