// Wall-clock micro-benchmarks (google-benchmark) of the real CPU cost of
// the stack's data-path primitives on the build machine: CRC32, byte
// appends, MPA framing/de-framing, DDP segment build/parse, segmentation
// planning, validity-map maintenance and SIP message codec.
//
// These are the operations whose *modelled* costs drive the virtual-time
// results; this binary shows what they cost for real on modern hardware.
#include <benchmark/benchmark.h>

#include "apps/sip/message.hpp"
#include "common/crc32.hpp"
#include "ddp/header.hpp"
#include "ddp/segmenter.hpp"
#include "mpa/mpa.hpp"
#include "rdmap/write_record.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace dgiwarp;

void BM_Crc32(benchmark::State& state) {
  const Bytes data = make_pattern(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_ieee(ConstByteSpan{data}));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
// 1,480 B is an IP fragment's payload, 8,256 B an rd_lossy datagram.
BENCHMARK(BM_Crc32)
    ->Arg(64)
    ->Arg(1 << 10)
    ->Arg(1480)
    ->Arg(8256)
    ->Arg(64 << 10)
    ->Arg(1 << 20);

void BM_BytesAppend(benchmark::State& state) {
  const Bytes src = make_pattern(static_cast<std::size_t>(state.range(0)), 4);
  Bytes buf;
  buf.reserve(src.size());
  for (auto _ : state) {
    buf.clear();
    append(buf, ConstByteSpan{src});
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BytesAppend)->Arg(1480)->Arg(8256);

void BM_MpaFrame(benchmark::State& state) {
  const Bytes ulpdu = make_pattern(static_cast<std::size_t>(state.range(0)), 2);
  mpa::MpaSender tx;
  Bytes framed;
  for (auto _ : state) {
    framed.clear();
    tx.frame(framed, ConstByteSpan{ulpdu});
    benchmark::DoNotOptimize(framed.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MpaFrame)->Arg(1432)->Arg(16 << 10);

void BM_MpaDeframe(benchmark::State& state) {
  const Bytes ulpdu = make_pattern(1432, 3);
  mpa::MpaSender tx;
  Bytes stream;
  for (int i = 0; i < 64; ++i) tx.frame(stream, ConstByteSpan{ulpdu});
  for (auto _ : state) {
    state.PauseTiming();
    mpa::MpaReceiver rx;  // marker positions are stream-absolute
    std::size_t got = 0;
    rx.on_ulpdu([&](ConstByteSpan u, bool) { got += u.size(); });
    state.ResumeTiming();
    benchmark::DoNotOptimize(rx.consume(ConstByteSpan{stream}));
    benchmark::DoNotOptimize(got);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(stream.size()));
}
BENCHMARK(BM_MpaDeframe);

void BM_DdpBuildSegment(benchmark::State& state) {
  const Bytes payload =
      make_pattern(static_cast<std::size_t>(state.range(0)), 4);
  ddp::SegmentHeader h;
  h.set_opcode(3);
  h.set_last(true);
  h.msg_len = static_cast<u32>(payload.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddp::build_segment(h, ConstByteSpan{payload}, true));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DdpBuildSegment)->Arg(1432)->Arg(64 << 10);

void BM_DdpParseSegment(benchmark::State& state) {
  const Bytes payload =
      make_pattern(static_cast<std::size_t>(state.range(0)), 5);
  ddp::SegmentHeader h;
  h.set_opcode(3);
  h.set_last(true);
  h.msg_len = static_cast<u32>(payload.size());
  const Bytes wire = ddp::build_segment(h, ConstByteSpan{payload}, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ddp::parse_segment(ConstByteSpan{wire}, true));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DdpParseSegment)->Arg(1432)->Arg(64 << 10);

void BM_SegmentPlanning(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ddp::plan_segments(static_cast<std::size_t>(state.range(0)), 65'471));
  }
}
BENCHMARK(BM_SegmentPlanning)->Arg(1 << 20)->Arg(16 << 20);

void BM_ValidityMapAdd(benchmark::State& state) {
  for (auto _ : state) {
    rdmap::ValidityMap map;
    // Out-of-order chunk pattern with coalescing.
    for (u32 i = 0; i < 64; ++i)
      map.add(((i * 7) % 64) * 1024, 1024);
    benchmark::DoNotOptimize(map.valid_bytes());
  }
}
BENCHMARK(BM_ValidityMapAdd);

// The observability acceptance bar: a disabled SpanTracker / CostProfiler
// on the data path must cost a predictable branch, nothing more. These
// time the exact calls the instrumented layers make per message/charge
// with tracking off (the default for every measurement run).
void BM_SpanTrackerDisabled(benchmark::State& state) {
  telemetry::SpanTracker spans;  // disabled by default
  for (auto _ : state) {
    u64 id = spans.begin(telemetry::SpanKind::kMessage, "bench", 1, 4096, 7);
    spans.stage(id, telemetry::Stage::kSegmentTx, 0, 1432);
    spans.stage(id, telemetry::Stage::kTransportTx, 1, 1432);
    spans.end(id, true);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_SpanTrackerDisabled);

void BM_CostProfilerDisabled(benchmark::State& state) {
  telemetry::CostProfiler prof;  // disabled by default
  const telemetry::CostSite site{telemetry::CostLayer::kDdp,
                                 telemetry::CostActivity::kSegment, 1432};
  for (auto _ : state) {
    prof.record(site, 100);
    benchmark::DoNotOptimize(&prof);
  }
}
BENCHMARK(BM_CostProfilerDisabled);

void BM_SipSerialize(benchmark::State& state) {
  const auto req =
      sip::make_request(sip::Method::kInvite, "alice", "bob", "c1", 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(req.serialize());
  }
}
BENCHMARK(BM_SipSerialize);

void BM_SipParse(benchmark::State& state) {
  const Bytes wire =
      sip::make_request(sip::Method::kInvite, "alice", "bob", "c1", 1)
          .serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sip::SipMessage::parse(ConstByteSpan{wire}));
  }
}
BENCHMARK(BM_SipParse);

}  // namespace

BENCHMARK_MAIN();
