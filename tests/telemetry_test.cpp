// Telemetry subsystem: registry aggregation, the Metric dual view, trace
// ring bounds, observer ordering, the cost profiler and deterministic JSON
// export.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "perf/harness.hpp"
#include "simnet/simulation.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp {
namespace {

using telemetry::Registry;
using telemetry::TraceKind;

TEST(Telemetry, CounterAggregatesAcrossMetrics) {
  Registry reg;
  telemetry::Metric a, b;
  a.bind(reg.counter("layer.thing.events"));
  b.bind(reg.counter("layer.thing.events"));

  ++a;
  a += 4;
  b.inc(2);

  // Instance-local views stay per-object...
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 2u);
  // ...while the registry holds the cross-instance aggregate.
  EXPECT_EQ(reg.counter_value("layer.thing.events"), 7u);
  EXPECT_TRUE(reg.has("layer.thing.events"));
  EXPECT_FALSE(reg.has("layer.thing.nonsense"));
}

TEST(Telemetry, MetricKeepsU64Semantics) {
  telemetry::Metric m;  // unbound: behaves exactly like the old u64 field
  ++m;
  m += 9;
  const u64 v = m;
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(static_cast<unsigned long long>(m), 10ull);
}

TEST(Telemetry, GaugeTracksMax) {
  Registry reg;
  auto& g = reg.gauge("layer.q.depth");
  g.set(3);
  g.set(11);
  g.set(2);
  EXPECT_EQ(g.value(), 2.0);
  EXPECT_EQ(g.max(), 11.0);
}

TEST(Telemetry, HistogramExactPercentiles) {
  Registry reg;
  auto& h = reg.histogram("layer.lat.us");
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_GE(h.percentile(99), 99.0);
  EXPECT_LE(h.percentile(50), 51.0);
}

TEST(Telemetry, TraceRingBoundsMemory) {
  Registry reg;
  reg.trace().enable(16);
  for (u64 i = 0; i < 100; ++i)
    reg.trace().record(TraceKind::kLinkDrop, i, 1500);

  EXPECT_EQ(reg.trace().capacity(), 16u);
  EXPECT_EQ(reg.trace().recorded(), 100u);
  EXPECT_EQ(reg.trace().dropped(), 84u);

  const auto events = reg.trace().snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Oldest first, and only the newest 16 survive.
  EXPECT_EQ(events.front().a, 84u);
  EXPECT_EQ(events.back().a, 99u);
}

// kTraceKindCount must track the enum: every value below it has a real
// name, and the one-past-the-end value hits the "?" fallback. Adding an
// enumerator without bumping the constant (or vice versa) fails here.
TEST(Telemetry, TraceKindNamesAreExhaustive) {
  std::set<std::string> names;
  for (u8 k = 0; k < telemetry::kTraceKindCount; ++k) {
    const char* name = trace_kind_name(static_cast<TraceKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "missing name for TraceKind " << int(k);
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate TraceKind name " << name;
  }
  EXPECT_STREQ(trace_kind_name(static_cast<TraceKind>(
                   telemetry::kTraceKindCount)),
               "?");
}

// Same contract for the span/profiler vocabularies introduced with them.
TEST(Telemetry, SpanAndCostNamesAreExhaustive) {
  for (u8 s = 0; s < telemetry::kStageCount; ++s)
    EXPECT_STRNE(telemetry::stage_name(static_cast<telemetry::Stage>(s)),
                 "?");
  EXPECT_STREQ(telemetry::stage_name(
                   static_cast<telemetry::Stage>(telemetry::kStageCount)),
               "?");
  for (u8 p = 0; p < telemetry::kSpanPhaseCount; ++p)
    EXPECT_STRNE(
        telemetry::span_phase_name(static_cast<telemetry::SpanPhase>(p)),
        "?");
  for (u8 l = 0; l < telemetry::kCostLayerCount; ++l)
    EXPECT_STRNE(
        telemetry::cost_layer_name(static_cast<telemetry::CostLayer>(l)),
        "?");
  for (u8 a = 0; a < telemetry::kCostActivityCount; ++a)
    EXPECT_STRNE(
        telemetry::cost_activity_name(static_cast<telemetry::CostActivity>(a)),
        "?");
  for (u8 c = 0; c < telemetry::kSizeClassCount; ++c)
    EXPECT_STRNE(telemetry::size_class_name(c), "?");
}

// Wraparound across several full cycles: the ring keeps exactly the newest
// `capacity` events in order, dropped() counts the rest, and re-enabling
// clears everything.
TEST(Telemetry, TraceRingWrapsAroundRepeatedly) {
  Registry reg;
  reg.trace().enable(8);
  for (u64 i = 0; i < 8; ++i)
    reg.trace().record(TraceKind::kLinkDrop, i, 0);
  EXPECT_EQ(reg.trace().dropped(), 0u);  // exactly full: nothing lost yet

  for (u64 i = 8; i < 8 * 3 + 5; ++i)
    reg.trace().record(TraceKind::kLinkDrop, i, 0);
  const auto events = reg.trace().snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].a, 8 * 3 + 5 - 8 + i);  // newest 8, oldest first
  EXPECT_EQ(reg.trace().recorded(), 8u * 3 + 5);
  EXPECT_EQ(reg.trace().dropped(), 8u * 3 + 5 - 8);

  reg.trace().enable(4);  // re-enable clears and resizes
  EXPECT_EQ(reg.trace().recorded(), 0u);
  EXPECT_TRUE(reg.trace().snapshot().empty());
  EXPECT_EQ(reg.trace().capacity(), 4u);
}

// The clock-wiring footgun documented in trace.hpp: a ring (and span
// tracker) obtained through a Registry stamps real virtual time even when
// enabled before any simulation event ran — the Registry constructor wires
// the clock, not enable(). A standalone TraceRing has no time source and
// stamps 0 by design.
TEST(Telemetry, RegistryWiresClocksAtConstruction) {
  sim::Simulation s;
  auto& reg = s.telemetry();
  reg.trace().enable();      // enabled before any event ever executed
  reg.spans().enable();
  u64 span = 0;
  s.at(123, [&] {
    reg.trace().record(TraceKind::kLinkDrop, 7, 0);
    span = reg.spans().begin(telemetry::SpanKind::kMessage, "t", 1, 64);
  });
  s.at(200, [&] { reg.spans().end(span, true); });
  s.run();
  const auto events = reg.trace().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].t, 123);
  ASSERT_EQ(reg.spans().finished().size(), 1u);
  EXPECT_EQ(reg.spans().finished()[0].start, 123);
  EXPECT_EQ(reg.spans().finished()[0].end, 200);

  telemetry::TraceRing standalone;  // no Registry, no clock: stamps 0
  standalone.enable();
  standalone.record(TraceKind::kLinkDrop, 1, 0);
  ASSERT_EQ(standalone.snapshot().size(), 1u);
  EXPECT_EQ(standalone.snapshot()[0].t, 0);
}

TEST(Telemetry, ProfilerBucketsByLayerActivityAndSizeClass) {
  telemetry::CostProfiler prof;
  const telemetry::CostSite crc{telemetry::CostLayer::kMpa,
                                telemetry::CostActivity::kCrc, 1432};
  prof.record(crc, 100);  // disabled: must not land anywhere
  EXPECT_EQ(prof.total_ns(), 0u);

  prof.enable();
  prof.record(crc, 100);
  prof.record(crc, 50);
  prof.record({telemetry::CostLayer::kMpa, telemetry::CostActivity::kCrc,
               64 * 1024},
              1000);
  prof.record({telemetry::CostLayer::kVerbs, telemetry::CostActivity::kPost,
               0},
              30);

  const auto& b = prof.bucket(telemetry::CostLayer::kMpa,
                              telemetry::CostActivity::kCrc,
                              telemetry::size_class_of(1432));
  EXPECT_EQ(b.count, 2u);
  EXPECT_EQ(b.total_ns, 150u);
  EXPECT_EQ(b.total_bytes, 2u * 1432);
  EXPECT_EQ(prof.total_ns(telemetry::CostLayer::kMpa), 1150u);
  EXPECT_EQ(prof.total_ns(), 1180u);

  // Different size classes stay apart.
  EXPECT_NE(telemetry::size_class_of(1432), telemetry::size_class_of(64 * 1024));
  EXPECT_EQ(telemetry::size_class_of(0), 0);
  EXPECT_EQ(telemetry::size_class_of(1), telemetry::size_class_of(64));
  EXPECT_NE(telemetry::size_class_of(64), telemetry::size_class_of(65));

  // merge_from is bucket-wise additive; to_json is deterministic.
  telemetry::CostProfiler other;
  other.enable();
  other.record(crc, 25);
  prof.merge_from(other);
  EXPECT_EQ(prof.bucket(telemetry::CostLayer::kMpa,
                        telemetry::CostActivity::kCrc,
                        telemetry::size_class_of(1432))
                .total_ns,
            175u);
  EXPECT_EQ(prof.to_json(), prof.to_json());
  EXPECT_NE(prof.to_json().find("\"crc\""), std::string::npos);
}

TEST(Telemetry, TraceDisabledByDefaultRecordsNothing) {
  Registry reg;
  reg.trace().record(TraceKind::kLinkDrop, 1, 2);
  EXPECT_FALSE(reg.trace().enabled());
  EXPECT_EQ(reg.trace().recorded(), 0u);
  EXPECT_TRUE(reg.trace().snapshot().empty());
}

TEST(Telemetry, TraceEventsStampedWithVirtualTime) {
  sim::Simulation s;
  auto& reg = s.telemetry();
  reg.trace().enable();
  s.at(100, [&] { reg.trace().record(TraceKind::kLinkDrop, 1, 0); });
  s.at(250, [&] { reg.trace().record(TraceKind::kLinkDrop, 2, 0); });
  s.run();
  const auto events = reg.trace().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t, 100);
  EXPECT_EQ(events[1].t, 250);
  EXPECT_EQ(reg.now(), s.now());
}

TEST(Telemetry, ObserverSeesEventsInOrder) {
  struct Recorder : sim::SimObserver {
    std::vector<std::pair<TimeNs, u64>> seen;
    void on_event(TimeNs t, u64 seq) override { seen.emplace_back(t, seq); }
  };
  sim::Simulation s;
  Recorder rec;
  s.set_observer(&rec);
  s.at(50, [] {});
  s.at(10, [&s] { s.after(5, [] {}); });
  s.at(10, [] {});  // same timestamp: FIFO order via seq
  s.run();
  s.set_observer(nullptr);

  ASSERT_EQ(rec.seen.size(), 4u);
  for (std::size_t i = 1; i < rec.seen.size(); ++i) {
    EXPECT_GE(rec.seen[i].first, rec.seen[i - 1].first);  // monotone in t
    // Same-timestamp events observe FIFO scheduling order via seq.
    if (rec.seen[i].first == rec.seen[i - 1].first) {
      EXPECT_GT(rec.seen[i].second, rec.seen[i - 1].second);
    }
  }
  EXPECT_EQ(rec.seen[0].first, 10);
  EXPECT_EQ(rec.seen[1].first, 10);
  EXPECT_EQ(rec.seen[2].first, 15);
  EXPECT_EQ(rec.seen[3].first, 50);
}

TEST(Telemetry, MergeFoldsRegistries) {
  Registry total, a, b;
  telemetry::Metric ma, mb;
  ma.bind(a.counter("x.count"));
  mb.bind(b.counter("x.count"));
  ma += 3;
  mb += 4;
  a.gauge("x.depth").set(5);
  b.gauge("x.depth").set(9);
  a.histogram("x.lat").add(1.0);
  b.histogram("x.lat").add(3.0);

  total.merge_from(a);
  total.merge_from(b);

  EXPECT_EQ(total.counter_value("x.count"), 7u);
  EXPECT_EQ(total.gauge("x.depth").max(), 9.0);
  ASSERT_NE(total.find_histogram("x.lat"), nullptr);
  EXPECT_EQ(total.find_histogram("x.lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(total.find_histogram("x.lat")->mean(), 2.0);
}

// The acceptance criterion: a lossy UD run populates metrics from at least
// four distinct layers, and two same-seed runs export byte-identical JSON.
TEST(Telemetry, LossyRunCoversLayersAndIsDeterministic) {
  auto run_once = [](std::string& json_out) {
    Registry metrics;
    perf::Options opts;
    opts.loss_rate = 0.01;
    opts.seed = 1234;
    opts.metrics = &metrics;
    (void)perf::measure_bandwidth(perf::Mode::kUdSendRecv, 256 * 1024, 8,
                                  opts);
    json_out = metrics.to_json();

    EXPECT_TRUE(metrics.has("simnet.link.drops"));          // simnet
    EXPECT_TRUE(metrics.has("hoststack.ip.datagrams_tx"));  // hoststack
    EXPECT_TRUE(metrics.has("verbs.cq.completions"));       // verbs
    EXPECT_TRUE(metrics.has("rdmap.write_record.chunks"));  // rdmap
    EXPECT_GT(metrics.counter_value("simnet.link.drops"), 0u);
  };
  std::string j1, j2;
  run_once(j1);
  run_once(j2);
  EXPECT_FALSE(j1.empty());
  EXPECT_EQ(j1, j2);  // byte-identical for the same seed
  EXPECT_NE(j1.find("\"schema\": \"dgiwarp.telemetry.v1\""),
            std::string::npos);
}

TEST(Telemetry, CorruptedRunCountersAreDeterministic) {
  // The corruption counters introduced with the fault family — link-level
  // frames_corrupted, CRC drops, and the escape oracle — must reproduce
  // byte-for-byte across runs with the same seed, and must tell a coherent
  // story: with the CRC on, every corrupted datagram is dropped, none
  // escape.
  auto run_once = [](bool crc_on, u64& corrupted, u64& drops, u64& escapes) {
    Registry metrics;
    perf::Options opts;
    opts.seed = 777;
    opts.metrics = &metrics;
    opts.ud_crc = crc_on;
    opts.data_faults = [] { return sim::Faults::bit_errors(2e-4); };
    (void)perf::measure_bandwidth(perf::Mode::kUdSendRecv, 256 * 1024, 8,
                                  opts);
    corrupted = metrics.counter_value("simnet.link.frames_corrupted");
    drops = metrics.counter_value("verbs.ud.crc_drops");
    escapes = metrics.counter_value("verbs.ud.crc_escapes");
    return metrics.to_json();
  };

  u64 corrupted1 = 0, drops1 = 0, escapes1 = 0;
  u64 corrupted2 = 0, drops2 = 0, escapes2 = 0;
  const std::string j1 = run_once(true, corrupted1, drops1, escapes1);
  const std::string j2 = run_once(true, corrupted2, drops2, escapes2);
  EXPECT_EQ(j1, j2);  // byte-identical for the same seed
  EXPECT_GT(corrupted1, 0u);
  EXPECT_GT(drops1, 0u);
  EXPECT_EQ(escapes1, 0u);  // CRC on: nothing corrupt gets through
  EXPECT_EQ(corrupted1, corrupted2);
  EXPECT_EQ(drops1, drops2);

  // CRC off: same channel, but now the corruption escapes — and the taint
  // oracle measures exactly that instead of silently losing it.
  u64 corrupted3 = 0, drops3 = 0, escapes3 = 0;
  const std::string j3 = run_once(false, corrupted3, drops3, escapes3);
  EXPECT_GT(corrupted3, 0u);
  EXPECT_EQ(drops3, 0u);
  EXPECT_GT(escapes3, 0u);
  EXPECT_NE(j1, j3);
}

}  // namespace
}  // namespace dgiwarp
