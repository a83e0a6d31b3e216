// Host: one end system. Bundles the CPU model, memory ledger and the
// kernel-side protocol stack (IP/UDP/TCP) attached to a fabric NIC. The
// user-space iWARP stack (verbs/...) is layered on top by verbs::Device.
#pragma once

#include "common/memledger.hpp"
#include "hoststack/tcp.hpp"
#include "hoststack/udp.hpp"
#include "simnet/topology.hpp"

namespace dgiwarp::host {

class Host {
 public:
  /// Attach a new host to `topo` (creates the NIC and its leaf-switch
  /// port; placement is the topology's round-robin policy).
  Host(sim::Topology& topo, const std::string& name);

  u32 addr() const { return ctx_.ip; }
  Endpoint endpoint(u16 port) const { return Endpoint{addr(), port}; }

  sim::Simulation& sim() { return ctx_.sim; }
  sim::CpuModel& cpu() { return cpu_; }
  const CostModel& costs() const { return kCostModel; }
  MemLedger& ledger() { return *ledger_; }
  const std::shared_ptr<MemLedger>& ledger_ptr() const { return ledger_; }
  HostCtx& ctx() { return ctx_; }

  IpLayer& ip() { return ip_; }
  UdpLayer& udp() { return udp_; }
  TcpLayer& tcp() { return tcp_; }

  std::size_t fabric_index() const { return index_; }

 private:
  std::shared_ptr<MemLedger> ledger_ = std::make_shared<MemLedger>();
  std::size_t index_;
  sim::CpuModel cpu_;
  HostCtx ctx_;
  IpLayer ip_;
  UdpLayer udp_;
  TcpLayer tcp_;
};

}  // namespace dgiwarp::host
