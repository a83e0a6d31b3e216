// Message-lifecycle spans: tracker semantics, the exact-sum breakdown
// invariant, and end-to-end propagation through real simulated runs (UD,
// RC, RD-with-loss), including retransmit child spans.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "perf/harness.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace_export.hpp"

namespace dgiwarp {
namespace {

using telemetry::Span;
using telemetry::SpanKind;
using telemetry::SpanPhase;
using telemetry::SpanTracker;
using telemetry::Stage;

TEST(SpanBreakdown, PartitionsExactlyByEndingStage) {
  Span s;
  s.start = 100;
  s.end = 1000;
  s.ended = true;
  s.stages = {
      {Stage::kPostSend, 100, 0, 0},     // starts the span, ends nothing
      {Stage::kSegmentTx, 250, 0, 0},    // 100..250 -> stack-tx
      {Stage::kTransportTx, 300, 0, 0},  // 250..300 -> queueing
      {Stage::kWireTx, 400, 0, 0},       // 300..400 -> queueing
      {Stage::kWireRx, 650, 0, 0},       // 400..650 -> wire
      {Stage::kRxWakeup, 700, 0, 0},     // 650..700 -> wakeup
      {Stage::kCqComplete, 990, 0, 0},   // 700..990 -> stack-rx
  };                                     // 990..1000 residual -> stack-rx
  const telemetry::SpanBreakdown b = telemetry::breakdown(s);
  EXPECT_EQ(b[SpanPhase::kStackTx], 150);
  EXPECT_EQ(b[SpanPhase::kQueueing], 150);
  EXPECT_EQ(b[SpanPhase::kWire], 250);
  EXPECT_EQ(b[SpanPhase::kRetransmitStall], 0);
  EXPECT_EQ(b[SpanPhase::kWakeup], 50);
  EXPECT_EQ(b[SpanPhase::kStackRx], 300);
  EXPECT_EQ(b.total(), s.end - s.start);  // exact, by construction
}

TEST(SpanBreakdown, ClampsStagesOutsideTheSpanWindow) {
  Span s;
  s.start = 500;
  s.end = 600;
  s.ended = true;
  s.stages = {
      {Stage::kPostSend, 500, 0, 0},
      {Stage::kWireRx, 90, 0, 0},        // before start: clamped, 0 ns
      {Stage::kTransportRx, 550, 0, 0},  // 500..550 -> stack-rx
      {Stage::kCqComplete, 9999, 0, 0},  // after end: clamped to 600
  };
  const telemetry::SpanBreakdown b = telemetry::breakdown(s);
  EXPECT_EQ(b[SpanPhase::kStackRx], 100);
  EXPECT_EQ(b.total(), 100);
}

TEST(SpanTracker, LifecycleAndChildSpans) {
  SpanTracker t;  // disabled by default
  EXPECT_EQ(t.begin(SpanKind::kMessage, "x", 1, 64), 0u);
  t.stage(0, Stage::kSegmentTx);  // id 0: no-op everywhere
  t.end(0, true);
  EXPECT_EQ(t.started(), 0u);

  t.enable();
  const u64 a = t.begin(SpanKind::kMessage, "msg", 1, 2048, 42);
  ASSERT_NE(a, 0u);
  const u64 c = t.child(a, SpanKind::kRetransmit, "rtx");
  ASSERT_NE(c, 0u);
  EXPECT_EQ(t.child(0, SpanKind::kRetransmit, "rtx"), 0u);
  EXPECT_EQ(t.child(999'999, SpanKind::kRetransmit, "rtx"), 0u);
  EXPECT_EQ(t.live_count(), 2u);

  t.stage(a, Stage::kSegmentTx, 0, 1432);
  t.stage(777, Stage::kSegmentTx);  // unknown id: no-op
  t.end(c, true);
  t.end(a, true);
  t.end(a, true);  // double-end: no-op
  ASSERT_EQ(t.finished().size(), 2u);
  const Span* span = t.find(a);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->completed);
  EXPECT_EQ(span->bytes, 2048u);
  ASSERT_EQ(span->stages.size(), 2u);
  EXPECT_EQ(span->stages[0].stage, Stage::kPostSend);
  EXPECT_EQ(span->stages[0].a, 42u);  // begin() records the wr_id operand
  const Span* child = t.find(c);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->parent, a);
  EXPECT_EQ(child->kind, SpanKind::kRetransmit);

  // take_all drains finished + live (the latter un-ended) and clears.
  const u64 open = t.begin(SpanKind::kIsock, "open", 2, 8);
  auto all = t.take_all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.back().id, open);
  EXPECT_FALSE(all.back().ended);
  EXPECT_EQ(t.live_count(), 0u);
  EXPECT_TRUE(t.finished().empty());
}

TEST(SpanTracker, FinishedListIsBounded) {
  SpanTracker t;
  t.enable(/*max_finished=*/4);
  for (int i = 0; i < 10; ++i)
    t.end(t.begin(SpanKind::kMessage, "m", 1, 1), true);
  EXPECT_EQ(t.finished().size(), 4u);
  EXPECT_EQ(t.finished_dropped(), 6u);
}

/// Run one latency measurement with span capture on and return the spans.
std::vector<Span> spans_of(perf::Mode mode, std::size_t msg, int iters,
                           double loss = 0.0, u64 seed = 0xC0FFEE) {
  telemetry::TraceCapture cap;
  perf::Options opts;
  opts.trace = &cap;
  opts.loss_rate = loss;
  opts.seed = seed;
  (void)perf::measure_latency(mode, msg, iters, opts);
  return cap.spans();
}

bool has_stage(const Span& s, Stage st) {
  for (const auto& r : s.stages)
    if (r.stage == st) return true;
  return false;
}

// The acceptance criterion: for every completed message span of a real
// simulated run, the per-phase breakdown reconstructs the end-to-end
// latency exactly (within 1 ns; in fact to the nanosecond).
TEST(SpanE2E, BreakdownSumsToEndToEndLatency) {
  for (perf::Mode m : {perf::Mode::kUdSendRecv, perf::Mode::kUdWriteRecord,
                       perf::Mode::kRcSendRecv, perf::Mode::kRdSendRecv}) {
    const auto spans = spans_of(m, 2048, 6);
    std::size_t completed = 0;
    for (const Span& s : spans) {
      if (!s.completed || s.parent != 0) continue;
      ++completed;
      const telemetry::SpanBreakdown b = telemetry::breakdown(s);
      EXPECT_EQ(b.total(), s.end - s.start) << perf::mode_name(m);
      EXPECT_GT(s.end, s.start) << perf::mode_name(m);
    }
    // 6 measured + 2 warmup iterations, a message each way per iteration.
    EXPECT_GE(completed, 16u) << perf::mode_name(m);
  }
}

// A clean UD ping-pong span walks the full causal chain: post -> segment
// -> NIC -> wire -> rx -> match -> placement -> completion, with nonzero
// time attributed to tx, wire and rx phases.
TEST(SpanE2E, UdSpanCoversTheWholeLifecycle) {
  const auto spans = spans_of(perf::Mode::kUdSendRecv, 4096, 4);
  std::size_t checked = 0;
  for (const Span& s : spans) {
    if (!s.completed || s.parent != 0) continue;
    ++checked;
    EXPECT_EQ(s.stages.front().stage, Stage::kPostSend);
    EXPECT_TRUE(has_stage(s, Stage::kSegmentTx));
    EXPECT_TRUE(has_stage(s, Stage::kNicTx));
    EXPECT_TRUE(has_stage(s, Stage::kWireTx));
    EXPECT_TRUE(has_stage(s, Stage::kWireRx));
    EXPECT_TRUE(has_stage(s, Stage::kSegmentRx));
    EXPECT_TRUE(has_stage(s, Stage::kRecvMatch));
    EXPECT_TRUE(has_stage(s, Stage::kPlacement));
    EXPECT_TRUE(has_stage(s, Stage::kCqComplete));
    EXPECT_EQ(s.bytes, 4096u);
    const telemetry::SpanBreakdown b = telemetry::breakdown(s);
    EXPECT_GT(b[SpanPhase::kStackTx], 0);
    EXPECT_GT(b[SpanPhase::kWire], 0);
    EXPECT_GT(b[SpanPhase::kStackRx], 0);
    EXPECT_EQ(b[SpanPhase::kRetransmitStall], 0);  // lossless run
  }
  EXPECT_GE(checked, 8u);
}

// RC spans ride the TCP stream: segment stages come from the stream-offset
// span tags, and completion closes the span at the receiver's CQ.
TEST(SpanE2E, RcSpanCrossesTheStream) {
  const auto spans = spans_of(perf::Mode::kRcSendRecv, 8192, 4);
  std::size_t checked = 0;
  for (const Span& s : spans) {
    if (!s.completed || s.parent != 0) continue;
    ++checked;
    EXPECT_TRUE(has_stage(s, Stage::kSegmentTx));
    EXPECT_TRUE(has_stage(s, Stage::kTransportTx));
    EXPECT_TRUE(has_stage(s, Stage::kSegmentRx));
    EXPECT_TRUE(has_stage(s, Stage::kCqComplete));
  }
  EXPECT_GE(checked, 8u);
}

// Under loss, RD messages that needed a retransmission carry kRetransmit
// stages, a child span of kind kRetransmit per affected datagram, and a
// nonzero retransmit-stall phase — the causal account of the paper's
// loss-latency curves.
TEST(SpanE2E, RdLossProducesRetransmitChildSpans) {
  const auto spans = spans_of(perf::Mode::kRdSendRecv, 1024, 40, 0.08, 99);
  std::map<u64, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;

  std::size_t rtx_children = 0;
  std::size_t stalled_roots = 0;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kRetransmit) {
      ++rtx_children;
      ASSERT_NE(s.parent, 0u);
      ASSERT_TRUE(by_id.count(s.parent));
      EXPECT_TRUE(has_stage(*by_id[s.parent], Stage::kRetransmit));
    }
    if (s.parent == 0 && s.completed && has_stage(s, Stage::kRetransmit)) {
      const telemetry::SpanBreakdown b = telemetry::breakdown(s);
      EXPECT_GT(b[SpanPhase::kRetransmitStall], 0);
      EXPECT_EQ(b.total(), s.end - s.start);
      ++stalled_roots;
    }
  }
  EXPECT_GT(rtx_children, 0u);
  EXPECT_GT(stalled_roots, 0u);
}

// With no capture requested, span tracking stays disabled: the measurement
// runs record nothing and allocate nothing (the disabled-path guarantee
// micro_stackops benchmarks for wall-clock cost).
TEST(SpanE2E, DisabledByDefault) {
  perf::Options opts;
  telemetry::Registry metrics;
  opts.metrics = &metrics;
  (void)perf::measure_latency(perf::Mode::kUdSendRecv, 1024, 2, opts);
  EXPECT_FALSE(metrics.spans().enabled());
  EXPECT_EQ(metrics.spans().started(), 0u);
  EXPECT_EQ(metrics.spans().live_count(), 0u);
}

// Virtual time (and therefore spans) must not depend on whether observers
// are on: the same seed measures the same latency with and without the
// whole capture stack enabled.
TEST(SpanE2E, ObservationDoesNotPerturbVirtualTime) {
  perf::Options plain;
  const auto base =
      perf::measure_latency(perf::Mode::kUdSendRecv, 2048, 6, plain);
  telemetry::TraceCapture cap;
  perf::Options traced;
  traced.trace = &cap;
  const auto observed =
      perf::measure_latency(perf::Mode::kUdSendRecv, 2048, 6, traced);
  EXPECT_DOUBLE_EQ(base.half_rtt_us, observed.half_rtt_us);
  EXPECT_EQ(base.iterations, observed.iterations);
}

}  // namespace
}  // namespace dgiwarp
