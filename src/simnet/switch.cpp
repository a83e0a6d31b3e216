#include "simnet/switch.hpp"

#include <utility>

namespace dgiwarp::sim {

Switch::Switch(Simulation& sim, Rng& rng, std::string name,
               std::size_t fdb_capacity)
    : sim_(sim), rng_(rng), name_(std::move(name)),
      fdb_capacity_(fdb_capacity) {
  forwarded_.bind(sim_.telemetry().counter("simnet.switch.frames_forwarded"));
  flooded_.bind(sim_.telemetry().counter("simnet.switch.frames_flooded"));
  fdb_evictions_.bind(
      sim_.telemetry().counter("simnet.switch.fdb_evictions"));
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

void Switch::learn(LinkAddr addr, std::size_t port) {
  if (auto it = fdb_.find(addr); it != fdb_.end()) {
    it->second = port;  // station moved (or trunk path refreshed)
    return;
  }
  if (fdb_capacity_ > 0 && fdb_.size() >= fdb_capacity_) {
    // Finite TCAM: drop the oldest entry. Traffic to the evicted address
    // degrades to flooding until it speaks again — never to loss.
    fdb_.erase(fdb_fifo_.front());
    fdb_fifo_.pop_front();
    ++fdb_evictions_;
  }
  fdb_.emplace(addr, port);
  fdb_fifo_.push_back(addr);
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
  learn(f.src, port);

  auto forward = [this, port](std::size_t out_port, Frame fr) {
    // A switch must never reflect a frame out its ingress port — not when
    // forwarding (a learned address can point at the ingress port when a
    // host talks to itself or a stale trunk entry loops back) and not when
    // flooding.
    assert(out_port != port);
    if (out_port == port) return;
    Link& out = egress_link(out_port, fr);
    sim_.after(kForwardingLatency, [&out, fr = std::move(fr)]() mutable {
      out.transmit(std::move(fr));
    });
  };

  const auto it = fdb_.find(f.dst);
  if (f.dst != kBroadcast && it != fdb_.end() && it->second != port) {
    ++forwarded_;
    forward(it->second, std::move(f));
    return;
  }
  if (f.dst != kBroadcast && it != fdb_.end() && it->second == port) {
    // Destination lives behind the ingress port: nothing to do (the frame
    // would only be reflected). Real switches filter these.
    return;
  }
  // Unknown destination or broadcast: flood all ports except ingress.
  ++flooded_;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p == port) continue;
    forward(p, f);
  }
}

}  // namespace dgiwarp::sim
