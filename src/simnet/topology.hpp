// Topology: the testbed builder.
//
// Owns everything below the hoststack for one experiment: the Simulation,
// the seeded Rng, a two-tier switching fabric (M leaf switches optionally
// joined through one spine), and the per-host NICs. Hosts are placed
// round-robin across leaves, and each one is programmed into every
// switch's forwarding table as it is added; no switch learns or floods.
// Cross-leaf traffic rides leaf<->spine trunk LAGs whose cable count (and
// therefore oversubscription ratio) is configurable. The default,
// `leaves == 1`, is the paper's testbed: one switch named "switch0", one
// cable per host.
//
// Fault attachment is through Link references
// (host_uplink/host_downlink/trunk_up/trunk_down) rather than index pairs;
// a reference stays valid for the topology's lifetime.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "simnet/switch.hpp"

namespace dgiwarp::sim {

class Topology {
 public:
  struct Params {
    LinkParams host_link;            // host <-> leaf cables (10GE default)
    LinkParams trunk_link;           // leaf <-> spine cables
    u64 seed = 0xD6E8FEB86659FD93ull;
    std::size_t leaves = 1;          // 1 => single flat switch, no spine
    std::size_t trunk_cables = 1;    // LAG width of each leaf<->spine trunk
  };

  explicit Topology(Params params);
  Topology();  // single 10GE switch, 500 ns latency (the paper's testbed)

  Simulation& sim() { return sim_; }
  const Simulation& sim() const { return sim_; }
  Rng& rng() { return rng_; }

  /// Add a host on leaf `index % leaves`; returns its global index. The
  /// host's link address is index + 1, and every switch's FDB is
  /// programmed with it at once.
  std::size_t add_host(const std::string& name);

  Nic& nic(std::size_t host) { return *nics_[host]; }
  LinkAddr addr(std::size_t host) const { return nics_[host]->addr(); }
  std::size_t hosts() const { return nics_.size(); }

  std::size_t leaves() const { return leaves_.size(); }
  Switch& leaf(std::size_t i) { return *leaves_[i]; }
  bool has_spine() const { return spine_ != nullptr; }
  Switch& spine() { return *spine_; }

  /// Leaf switch index the host is attached to (round-robin placement).
  std::size_t leaf_of(std::size_t host) const { return locs_[host].leaf; }

  /// host -> leaf direction of the host's cable (the paper's "tc egress
  /// drop at the sender" attachment point).
  Link& host_uplink(std::size_t host) {
    return leaf_of_host(host).uplink(locs_[host].port);
  }
  /// leaf -> host direction (receiver-side faults).
  Link& host_downlink(std::size_t host) {
    return leaf_of_host(host).downlink(locs_[host].port);
  }

  /// leaf -> spine member `cable` of leaf `i`'s trunk LAG.
  Link& trunk_up(std::size_t i, std::size_t cable = 0) {
    return *trunks_[i].up[cable];
  }
  /// spine -> leaf member `cable`.
  Link& trunk_down(std::size_t i, std::size_t cable = 0) {
    return *trunks_[i].down[cable];
  }

  /// Host-facing bandwidth divided by trunk bandwidth for leaf `i`: > 1
  /// means the leaf is oversubscribed and incast toward the trunk queues.
  double oversubscription(std::size_t i) const;

  /// Register per-trunk observability rollups with the simulation's
  /// telemetry layers: every trunk LAG member gets a queue-depth probe
  /// series ("link.<name>.queue_depth") on the Sampler and a stuck-queue
  /// watch on the Watchdog — whichever of the two is enabled at call time.
  /// Host cables are deliberately skipped: at cluster scale the trunks are
  /// where incast shows, and per-host series would swamp the export. Call
  /// after enabling the sampler/watchdog and before running traffic.
  void attach_health();

 private:
  struct HostLoc {
    std::size_t leaf = 0;
    std::size_t port = 0;
  };
  /// One leaf<->spine trunk: LAG members in both directions, owned here
  /// (switches only hold raw egress pointers).
  struct Trunk {
    std::vector<std::unique_ptr<Link>> up;    // leaf -> spine
    std::vector<std::unique_ptr<Link>> down;  // spine -> leaf
    std::size_t leaf_port = 0;   // trunk port index on the leaf
    std::size_t spine_port = 0;  // trunk port index on the spine
  };

  Switch& leaf_of_host(std::size_t host) {
    return *leaves_[locs_[host].leaf];
  }

  Params params_;
  Simulation sim_;
  Rng rng_;
  std::vector<std::unique_ptr<Switch>> leaves_;
  std::unique_ptr<Switch> spine_;
  std::vector<Trunk> trunks_;  // one per leaf (empty when leaves == 1)
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<HostLoc> locs_;
};

}  // namespace dgiwarp::sim
