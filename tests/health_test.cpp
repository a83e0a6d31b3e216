// Observability layer: the Sampler's virtual-time series, the invariant
// Watchdog rules (true-positive AND true-negative for each), the flight
// recorder's schema, and the zero-cost-when-disabled contract that keeps
// every seeded fig5-fig11 reproduction byte-identical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hoststack/host.hpp"
#include "rd/reliable.hpp"
#include "simnet/topology.hpp"
#include "simnet/topology.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"

namespace dgiwarp {
namespace {

using telemetry::Registry;
using telemetry::Sampler;
using telemetry::Watchdog;
using telemetry::WatchdogRule;

// ---------------------------------------------------------------- sampler

TEST(Sampler, SamplesEveryBoundaryAcrossIdleJumps) {
  sim::Simulation sim;
  sim.telemetry().sampler().enable(1 * kMillisecond);
  sim.telemetry().sampler().add_probe("const", [] { return 7.0; });

  // One event at 3 ms, then a pure idle jump to 10 ms: the boundary loop
  // must emit exactly one point per 1 ms boundary either way.
  sim.at(3 * kMillisecond, [] {});
  sim.run_until(10 * kMillisecond);

  const telemetry::TimeSeries* s = sim.telemetry().sampler().find("const");
  ASSERT_NE(s, nullptr);
  const auto pts = s->snapshot();
  ASSERT_EQ(pts.size(), 11u);  // t = 0, 1, ..., 10 ms
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].t, static_cast<TimeNs>(i) * kMillisecond);
    EXPECT_EQ(pts[i].v, 7.0);
  }
}

TEST(Sampler, CounterSourceDerivesRateSeries) {
  sim::Simulation sim;
  sim.telemetry().sampler().enable(1 * kMillisecond);
  sim.telemetry().sampler().add_counter("test.ctr");

  // +10 events in (1ms, 2ms]: the t=2ms rate point must read 10 per 1 ms
  // interval = 10000 events/s of virtual time.
  for (int i = 0; i < 10; ++i)
    sim.at(kMillisecond + 100 + i, [&sim] {
      sim.telemetry().counter("test.ctr").inc();
    });
  sim.run_until(3 * kMillisecond);

  const telemetry::TimeSeries* raw = sim.telemetry().sampler().find("test.ctr");
  const telemetry::TimeSeries* rate =
      sim.telemetry().sampler().find("test.ctr.rate");
  ASSERT_NE(raw, nullptr);
  ASSERT_NE(rate, nullptr);
  const auto rp = rate->snapshot();
  ASSERT_EQ(rp.size(), 4u);
  EXPECT_EQ(rp[1].v, 0.0);      // (0ms, 1ms]: nothing yet
  EXPECT_EQ(rp[2].v, 10000.0);  // (1ms, 2ms]: 10 increments / 1 ms
  EXPECT_EQ(rp[3].v, 0.0);
}

TEST(Sampler, RingDropsOldestBeyondCapacity) {
  telemetry::TimeSeries ts("probe", 4);
  for (int i = 0; i < 10; ++i) ts.push(i, static_cast<double>(i));
  EXPECT_EQ(ts.recorded(), 10u);
  EXPECT_EQ(ts.dropped(), 6u);
  const auto pts = ts.snapshot();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front().v, 6.0);  // oldest surviving
  EXPECT_EQ(pts.back().v, 9.0);
  EXPECT_EQ(ts.last().v, 9.0);
}

TEST(SamplerDeathTest, NonPositiveIntervalAborts) {
  EXPECT_DEATH(
      {
        sim::Simulation sim;
        sim.telemetry().sampler().enable(0);
      },
      "Sampler::enable: interval 0 ns is not positive");
  EXPECT_DEATH(
      {
        sim::Simulation sim;
        sim.telemetry().sampler().enable(-5);
      },
      "interval -5 ns");
}

// A miniature fig13: 2 senders incast a 1G trunk, sampler armed the way the
// bench arms it. Returns the run fragment + registry JSON.
std::pair<std::string, std::string> mini_incast_sampled(bool sample) {
  sim::Topology::Params tp;
  tp.leaves = 2;
  tp.trunk_link.bandwidth_bps = 1e9;
  sim::Topology topo(tp);
  auto& reg = topo.sim().telemetry();
  if (sample) {
    reg.sampler().enable(250 * kMicrosecond);
    reg.sampler().add_counter("rd.data_rx");
    reg.sampler().add_counter("simnet.link.queue_drops");
  }
  topo.attach_health();

  host::Host tx0(topo, "tx0"), rx(topo, "rx"), tx1(topo, "tx1");
  topo.trunk_up(0).set_queue_capacity(16);

  rd::RdConfig cfg;
  cfg.max_retries = 60;
  rd::ReliableDatagram rd_rx(rx.ctx(), **rx.udp().open(100), cfg);
  rd::ReliableDatagram rd_a(tx0.ctx(), **tx0.udp().open(100), cfg);
  rd::ReliableDatagram rd_b(tx1.ctx(), **tx1.udp().open(100), cfg);
  std::size_t delivered = 0;
  rd_rx.on_datagram([&](rd::Endpoint, Bytes, bool) { ++delivered; });

  const Bytes msg = make_pattern(1024, 0x21);
  const rd::Endpoint dst{rx.addr(), 100};
  for (int round = 0; round < 5; ++round)
    topo.sim().at(round * kMillisecond, [&, dst] {
      for (int m = 0; m < 30; ++m) {
        (void)rd_a.send_to(dst, ConstByteSpan{msg});
        (void)rd_b.send_to(dst, ConstByteSpan{msg});
      }
    });
  topo.sim().run();
  EXPECT_EQ(delivered, 300u);
  return {sample ? reg.sampler().run_json() : std::string(), reg.to_json()};
}

TEST(Sampler, DoubleRunExportsAreByteIdentical) {
  const auto a = mini_incast_sampled(true);
  const auto b = mini_incast_sampled(true);
  EXPECT_FALSE(a.first.empty());
  EXPECT_EQ(a.first, b.first);    // time-series fragment
  EXPECT_EQ(a.second, b.second);  // registry
}

TEST(Sampler, DisabledObservabilityAddsNoRegistryKeys) {
  // The fig5-fig11 byte-identity contract: with sampler and watchdog off,
  // the same workload (attach_health still called, as the benches do) must
  // not grow a single observability key.
  const auto plain = mini_incast_sampled(false);
  EXPECT_EQ(plain.second.find("telemetry.watchdog"), std::string::npos);
  // Sampling reads the registry, it does not write it: the sampled run's
  // registry export is byte-identical to the plain run's.
  EXPECT_EQ(plain.second, mini_incast_sampled(true).second);
}

TEST(Sampler, TimeseriesDocumentValidates) {
  const auto a = mini_incast_sampled(true);
  const std::string doc =
      telemetry::timeseries_document({{"run_a", a.first}});
  EXPECT_TRUE(telemetry::validate_timeseries_json(doc).ok());
  EXPECT_NE(doc.find(telemetry::kTimeseriesSchema), std::string::npos);
  // Violations are caught: wrong schema tag, missing runs.
  EXPECT_FALSE(telemetry::validate_timeseries_json("{}").ok());
  std::string bad = doc;
  bad.replace(bad.find("timeseries.v1"), 13, "timeseries.v9");
  EXPECT_FALSE(telemetry::validate_timeseries_json(bad).ok());
}

// --------------------------------------------------------------- watchdog

TEST(WatchdogRules, StuckQueueTripsAndLatchesOnce) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.trace().enable();
  reg.watchdog().enable();  // 1 ms cadence, 16 non-draining ticks
  reg.watchdog().watch_queue("trunk", [] { return 5.0; });

  sim.run_until(40 * kMillisecond);

  const Watchdog& wd = reg.watchdog();
  ASSERT_TRUE(wd.tripped());
  ASSERT_EQ(wd.trips().size(), 1u);  // latched: one trip despite 40 ticks
  EXPECT_EQ(wd.trips()[0].rule, WatchdogRule::kStuckQueue);
  EXPECT_EQ(wd.trips()[0].target, "trunk");
  EXPECT_EQ(wd.trips()[0].value, 5.0);
  EXPECT_EQ(reg.counter_value("telemetry.watchdog.trips"), 1u);
  EXPECT_EQ(reg.counter_value("telemetry.watchdog.stuck_queue"), 1u);
  EXPECT_GT(reg.counter_value("telemetry.watchdog.checks"), 0u);
  // The registry counters are the one count: the accessors read them.
  EXPECT_EQ(wd.trip_count(), 1u);
  EXPECT_EQ(wd.checks(), reg.counter_value("telemetry.watchdog.checks"));
  // The trip left a trace instant for the flight recorder / Perfetto lane.
  bool saw_instant = false;
  for (const auto& ev : reg.trace().snapshot())
    if (ev.kind == telemetry::TraceKind::kWatchdogTrip) saw_instant = true;
  EXPECT_TRUE(saw_instant);
}

TEST(WatchdogRules, DrainingQueueDoesNotTrip) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.watchdog().enable();
  // Sawtooth: fills for 10 ticks, drains on the 11th — never 16 straight
  // non-decreasing ticks with depth > 0. Events every tick keep the probe
  // reads fresh (a pure idle jump would evaluate every boundary against the
  // end state, which is the right semantics for frozen values but not for
  // this synthetic clock-driven one).
  reg.watchdog().watch_queue("trunk", [&sim] {
    return static_cast<double>((sim.now() / kMillisecond) % 11);
  });
  for (int k = 1; k <= 100; ++k) sim.at(k * kMillisecond, [] {});
  sim.run();
  EXPECT_FALSE(reg.watchdog().tripped());
}

TEST(WatchdogRules, SyntheticStormFloorAndLeakTrip) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.watchdog().enable();
  auto ms = [&sim] { return static_cast<double>(sim.now() / kMillisecond); };
  // Retx grows 100/tick against flat goodput: a storm after one window.
  reg.watchdog().watch_retx_storm("flow", [ms] { return ms() * 100.0; },
                                  [] { return 42.0; });
  // Rate pinned firmly below the floor.
  reg.watchdog().watch_rate_floor("flow", [] { return 10.0; }, 100.0);
  // Ledger grows 4 KB per tick, strictly, forever: 100 ticks and 400 KB
  // later that is a leak.
  reg.watchdog().watch_ledger("srv", [ms] { return ms() * 4096.0; });

  for (int k = 1; k <= 200; ++k) sim.at(k * kMillisecond, [] {});
  sim.run();

  const Watchdog& wd = reg.watchdog();
  EXPECT_EQ(wd.trips().size(), 3u);
  std::vector<WatchdogRule> rules;
  for (const auto& t : wd.trips()) rules.push_back(t.rule);
  EXPECT_NE(std::find(rules.begin(), rules.end(), WatchdogRule::kRetxStorm),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), WatchdogRule::kRateFloor),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), WatchdogRule::kMemLeak),
            rules.end());
}

TEST(WatchdogRules, SteadyStateDoesNotTrip) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.watchdog().enable();
  auto ms = [&sim] { return static_cast<double>(sim.now() / kMillisecond); };
  // Goodput outpaces retx 10:1 — no storm.
  reg.watchdog().watch_retx_storm("flow", [ms] { return ms() * 10.0; },
                                  [ms] { return ms() * 100.0; });
  // Rate above the floor.
  reg.watchdog().watch_rate_floor("flow", [] { return 500.0; }, 100.0);
  // Memory plateaus after warmup: growth pauses reset the leak run.
  reg.watchdog().watch_ledger("srv", [ms] {
    return std::min(ms(), 50.0) * 8192.0;
  });
  for (int k = 1; k <= 300; ++k) sim.at(k * kMillisecond, [] {});
  sim.run();
  EXPECT_FALSE(reg.watchdog().tripped());
}

TEST(Watchdog, StalledFlowTripsOnBlackHoledLink) {
  // End-to-end true positive, the --inject-stall scenario in miniature:
  // the sender's uplink goes 100% lossy mid-run; outstanding datagrams
  // stop progressing and the stalled-flow rule must notice.
  sim::Topology topo;
  auto& reg = topo.sim().telemetry();
  reg.watchdog().enable();

  host::Host a(topo, "a"), b(topo, "b");
  rd::RdConfig cfg;
  cfg.max_retries = 60;
  rd::ReliableDatagram tx(a.ctx(), **a.udp().open(100), cfg);
  rd::ReliableDatagram rx(b.ctx(), **b.udp().open(100), cfg);
  rd::ReliableDatagram* txp = &tx;
  reg.watchdog().watch_flow(
      "tx", [txp] { return static_cast<double>(txp->unacked()); },
      [txp] { return static_cast<double>(txp->stats().acks_rx.value()); });

  // Healthy warmup first, so the rule has seen real progress before the
  // fault lands (guards against "never progressed" shortcuts).
  const Bytes msg = make_pattern(512, 9);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(tx.send_to({b.addr(), 100}, ConstByteSpan{msg}).ok());
  topo.sim().run();
  EXPECT_GT(tx.stats().acks_rx.value(), 0u);

  topo.host_uplink(0).set_faults(sim::Faults::bernoulli(1.0).isolated(3));
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(tx.send_to({b.addr(), 100}, ConstByteSpan{msg}).ok());
  topo.sim().run_until(topo.sim().now() + 500 * kMillisecond);

  ASSERT_TRUE(reg.watchdog().tripped());
  EXPECT_EQ(reg.watchdog().trips()[0].rule, WatchdogRule::kStalledFlow);
  EXPECT_EQ(reg.watchdog().trips()[0].target, "tx");
}

TEST(Watchdog, HealthyTransferStaysQuiet) {
  // True negative for the same wiring: no faults, same watches — RTO gaps
  // and in-flight windows must not read as stalls.
  sim::Topology topo;
  auto& reg = topo.sim().telemetry();
  reg.watchdog().enable();

  host::Host a(topo, "a"), b(topo, "b");
  rd::ReliableDatagram tx(a.ctx(), **a.udp().open(100), {});
  rd::ReliableDatagram rx(b.ctx(), **b.udp().open(100), {});
  rd::ReliableDatagram* txp = &tx;
  reg.watchdog().watch_flow(
      "tx", [txp] { return static_cast<double>(txp->unacked()); },
      [txp] { return static_cast<double>(txp->stats().acks_rx.value()); });
  std::size_t delivered = 0;
  rx.on_datagram([&](rd::Endpoint, Bytes, bool) { ++delivered; });

  const Bytes msg = make_pattern(512, 9);
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(tx.send_to({b.addr(), 100}, ConstByteSpan{msg}).ok());
  topo.sim().run();
  topo.sim().run_until(topo.sim().now() + 300 * kMillisecond);

  EXPECT_EQ(delivered, 50u);
  EXPECT_FALSE(reg.watchdog().tripped());
  EXPECT_GT(reg.watchdog().checks(), 0u);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorder, DocumentValidatesAndCarriesTheStory) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.trace().enable();
  reg.watchdog().enable();
  reg.watchdog().watch_queue("trunk", [] { return 3.0; });
  reg.sampler().enable(1 * kMillisecond);
  reg.sampler().add_probe("depth", [] { return 3.0; });
  reg.counter("some.counter").inc(11);
  sim.at(30 * kMillisecond, [] {});
  sim.run();

  ASSERT_TRUE(reg.watchdog().tripped());
  const std::string doc = telemetry::flight_recorder_json(reg, "unit test");
  EXPECT_TRUE(telemetry::validate_flight_recorder_json(doc).ok())
      << telemetry::validate_flight_recorder_json(doc).to_string();
  // The post-mortem actually carries the trip, the series and the counters.
  EXPECT_NE(doc.find(telemetry::kFlightSchema), std::string::npos);
  EXPECT_NE(doc.find("\"stuck_queue\""), std::string::npos);
  EXPECT_NE(doc.find("\"depth\""), std::string::npos);
  EXPECT_NE(doc.find("\"some.counter\""), std::string::npos);
  EXPECT_NE(doc.find("\"watchdog_trip\""), std::string::npos);

  // Rejections: non-JSON, wrong schema.
  EXPECT_FALSE(telemetry::validate_flight_recorder_json("nope").ok());
  std::string bad = doc;
  bad.replace(bad.find("flight.v2"), 9, "flight.v9");
  EXPECT_FALSE(telemetry::validate_flight_recorder_json(bad).ok());
}

// The flight document embeds the run's metrics document instead of writing
// its values a second time: the `metrics` member is Registry::to_json(),
// byte for byte what a --metrics-json dump of the same registry holds.
TEST(FlightRecorder, EmbedsTheMetricsDocument) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.trace().enable();
  reg.watchdog().enable();
  reg.watchdog().watch_queue("trunk", [] { return 3.0; });
  reg.sampler().enable(1 * kMillisecond);
  reg.sampler().add_probe("depth", [] { return 3.0; });
  sim.at(30 * kMillisecond, [] {});
  sim.run();
  ASSERT_TRUE(reg.watchdog().tripped());

  const std::string doc = telemetry::flight_recorder_json(reg, "unit test");
  const std::string metrics = reg.to_json();
  telemetry::JsonParser p{doc};
  std::size_t at = std::string::npos;
  ASSERT_TRUE(p.document([&](const std::string& key) {
    if (key == "metrics") {
      p.ws();
      at = p.i;
    }
    return p.skip_value();
  })) << p.err;
  ASSERT_NE(at, std::string::npos) << doc;
  EXPECT_EQ(doc.substr(at, metrics.size()), metrics);
  // The trips and the series are the watchdog's and the sampler's own
  // writers' output too.
  EXPECT_NE(doc.find("\"trips\": " + reg.watchdog().trips_json()),
            std::string::npos);
  EXPECT_NE(doc.find("\"series\": " + reg.sampler().run_json()),
            std::string::npos);
}

// A trip target is caller-supplied text: control characters in it must
// come out escaped, so the flight document stays valid JSON.
TEST(FlightRecorder, TripTargetsEscapeControlCharacters) {
  sim::Simulation sim;
  auto& reg = sim.telemetry();
  reg.watchdog().enable();
  reg.watchdog().watch_queue("trunk\tA\nB", [] { return 5.0; });
  sim.run_until(40 * kMillisecond);
  ASSERT_TRUE(reg.watchdog().tripped());

  const std::string doc = telemetry::flight_recorder_json(reg, "unit test");
  EXPECT_NE(doc.find(R"("target": "trunk\tA\nB")"), std::string::npos) << doc;
  // The sampler is off, so the document has no series member.
  EXPECT_EQ(doc.find(R"("series")"), std::string::npos) << doc;
  EXPECT_TRUE(telemetry::validate_flight_recorder_json(doc).ok())
      << telemetry::validate_flight_recorder_json(doc).to_string();
}

TEST(FlightRecorder, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    sim::Simulation sim;
    auto& reg = sim.telemetry();
    reg.trace().enable();
    reg.watchdog().enable();
    reg.watchdog().watch_queue("q", [] { return 2.0; });
    sim.at(25 * kMillisecond, [] {});
    sim.run();
    return telemetry::flight_recorder_json(reg, "det");
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------- link gauge regression

TEST(LinkGauge, QueueDepthGaugeFreshAfterIdleDrain) {
  // An idle link reports depth 0 once its last frame has left the wire:
  // queue_depth(), which the Sampler's per-link probe reads, prunes
  // departed frames when it is read.
  const auto result = mini_incast_sampled(false);
  (void)result;

  sim::Topology::Params tp;
  tp.leaves = 2;
  tp.trunk_link.bandwidth_bps = 1e9;
  sim::Topology topo(tp);
  host::Host tx0(topo, "tx"), rx(topo, "rx");
  topo.trunk_up(0).set_queue_capacity(32);

  rd::ReliableDatagram rd_rx(rx.ctx(), **rx.udp().open(100), {});
  rd::ReliableDatagram rd_tx(tx0.ctx(), **tx0.udp().open(100), {});
  const Bytes msg = make_pattern(1024, 3);
  for (int i = 0; i < 40; ++i)
    (void)rd_tx.send_to({rx.addr(), 100}, ConstByteSpan{msg});
  topo.sim().run();

  // Everything delivered and the wire is quiet: no phantom standing queue.
  EXPECT_EQ(topo.trunk_up(0).queue_depth(), 0u);
}

}  // namespace
}  // namespace dgiwarp
