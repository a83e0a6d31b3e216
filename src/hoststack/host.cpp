#include "hoststack/host.hpp"

namespace dgiwarp::host {

Host::Host(sim::Topology& topo, const std::string& name)
    : index_(topo.add_host(name)),
      cpu_(topo.sim()),
      ctx_{topo.sim(),  cpu_,          topo.nic(index_),
           kCostModel,  ledger_,       topo.rng(),
           topo.addr(index_)},
      ip_(ctx_),
      udp_(ctx_, ip_),
      tcp_(ctx_, ip_) {}

}  // namespace dgiwarp::host
