// Tests for the Node bundle and the ClusterHarness: multi-tenant SIP runs
// in one Simulation, per-tenant memory attribution, and metrics-level
// determinism.
#include <gtest/gtest.h>

#include "perf/cluster.hpp"
#include "telemetry/flight.hpp"

namespace dgiwarp {
namespace {

TEST(Node, BundleProvisionsHostDeviceAndEndpoint) {
  sim::Topology topo;
  verbs::NodeSpec spec;
  spec.name = "n0";
  spec.endpoint = verbs::NodeSpec::Endpoint::kUd;
  verbs::Node n(topo, spec);
  EXPECT_TRUE(n.status().ok());
  ASSERT_NE(n.qp(), nullptr);
  EXPECT_EQ(n.name(), "n0");
  EXPECT_EQ(n.index(), 0u);
  EXPECT_EQ(n.addr(), 1u);
  EXPECT_EQ(topo.hosts(), 1u);
  // PD/CQs are live objects owned by the bundled device.
  EXPECT_EQ(n.send_cq().capacity(), spec.cq_capacity);
}

TEST(Node, DefaultNameFollowsTopologyIndex) {
  sim::Topology topo;
  verbs::Node a(topo, {});
  verbs::Node b(topo, {});
  EXPECT_EQ(a.name(), "node0");
  EXPECT_EQ(b.name(), "node1");
  EXPECT_EQ(b.index(), 1u);
}

TEST(Node, RdEndpointRidesReliableLayer) {
  sim::Topology topo;
  verbs::NodeSpec spec;
  spec.endpoint = verbs::NodeSpec::Endpoint::kRd;
  verbs::Node n(topo, spec);
  EXPECT_TRUE(n.status().ok());
  ASSERT_NE(n.qp(), nullptr);
}

TEST(Cluster, SmallSipUdRunEstablishesEverything) {
  perf::ClusterConfig cfg;
  cfg.pairs = 3;
  cfg.calls_per_pair = 4;
  cfg.topo.leaves = 2;
  perf::ClusterHarness cluster(cfg);
  const perf::ClusterReport rep = cluster.run_sip();

  EXPECT_EQ(rep.nodes, 6u);
  EXPECT_EQ(rep.calls_requested, 12u);
  EXPECT_EQ(rep.established, 12u);
  EXPECT_EQ(rep.terminated, 12u);
  EXPECT_GT(rep.events, 0u);
  ASSERT_EQ(rep.tenants.size(), 3u);
  for (const auto& t : rep.tenants) {
    EXPECT_EQ(t.established, 4u);
    // Per-tenant memory attribution: every tenant's server ledger carries
    // its own calls' state.
    EXPECT_GT(t.server_total, 0);
    EXPECT_GT(t.server_app, 0);
    EXPECT_GT(t.client_total, 0);
  }
  EXPECT_GT(rep.server_mem_total, 0);
}

TEST(Cluster, SipRcRunEstablishes) {
  perf::ClusterConfig cfg;
  cfg.pairs = 2;
  cfg.calls_per_pair = 3;
  cfg.transport = sip::Transport::kRc;
  perf::ClusterHarness cluster(cfg);
  const perf::ClusterReport rep = cluster.run_sip();
  EXPECT_EQ(rep.established, 6u);
  EXPECT_EQ(rep.terminated, 6u);
}

TEST(Cluster, SameConfigProducesIdenticalMetrics) {
  auto run = [] {
    perf::ClusterConfig cfg;
    cfg.pairs = 4;
    cfg.calls_per_pair = 5;
    cfg.topo.leaves = 2;
    cfg.topo.trunk_cables = 2;
    perf::ClusterHarness cluster(cfg);
    const perf::ClusterReport rep = cluster.run_sip();
    return std::make_pair(rep.events, cluster.metrics_json());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_FALSE(a.second.empty());
}

// fig12's --strict-health path: a watched run arms the trace ring for the
// flight recorder alone, at kFlightTraceEvents, and its snapshot is a valid
// flight document that holds the run's metrics document.
TEST(Cluster, WatchedRunFlightHoldsItsMetrics) {
  perf::ClusterConfig cfg;
  cfg.pairs = 2;
  cfg.calls_per_pair = 2;
  cfg.topo.leaves = 2;
  cfg.health.watch = true;
  perf::ClusterHarness cluster(cfg);
  const perf::ClusterReport rep = cluster.run_sip();

  EXPECT_EQ(rep.watchdog_trips, 0u);
  EXPECT_GT(rep.watchdog_checks, 0u);
  EXPECT_EQ(cluster.topology().sim().telemetry().trace().capacity(),
            telemetry::kFlightTraceEvents);
  const Status v = telemetry::validate_flight_recorder_json(rep.flight);
  EXPECT_TRUE(v.ok()) << v.to_string();
  EXPECT_NE(rep.flight.find(cluster.metrics_json()), std::string::npos);
}

}  // namespace
}  // namespace dgiwarp
