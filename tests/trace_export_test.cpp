// Chrome trace_event / Perfetto export: schema validation (pass and fail
// directions), multi-run timeline merging, and byte-identical same-seed
// documents — the property that makes exported traces diffable artifacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "perf/harness.hpp"
#include "telemetry/json_lite.hpp"
#include "telemetry/trace_export.hpp"

namespace dgiwarp {
namespace {

using telemetry::TraceCapture;

TraceCapture capture_run(perf::Mode mode, std::size_t msg, int iters,
                         u64 seed = 0xC0FFEE, double loss = 0.0) {
  TraceCapture cap;
  perf::Options opts;
  opts.trace = &cap;
  opts.seed = seed;
  opts.loss_rate = loss;
  (void)perf::measure_latency(mode, msg, iters, opts);
  return cap;
}

// The fig5-style acceptance run: a real measurement's export passes the
// trace_event schema gate and carries the expected structure.
TEST(TraceExport, RealCaptureValidates) {
  TraceCapture cap;
  perf::Options opts;
  opts.trace = &cap;
  for (perf::Mode m : {perf::Mode::kUdSendRecv, perf::Mode::kRcSendRecv})
    (void)perf::measure_latency(m, 2048, 4, opts);

  EXPECT_EQ(cap.runs(), 2u);
  EXPECT_FALSE(cap.spans().empty());
  const std::string json = cap.trace_event_json();
  EXPECT_TRUE(telemetry::validate_trace_event_json(json).ok());
  // Node metadata from the harness rig names both processes.
  EXPECT_NE(json.find("\"sender\""), std::string::npos);
  EXPECT_NE(json.find("\"receiver\""), std::string::npos);
  EXPECT_NE(json.find("\"UD Send\""), std::string::npos);

  const std::string profile = cap.profile_json();
  EXPECT_NE(profile.find("\"dgiwarp.profile.v1\""), std::string::npos);
  EXPECT_NE(profile.find("\"phase_ns\""), std::string::npos);
  EXPECT_NE(profile.find("\"cost_buckets\""), std::string::npos);
}

TEST(TraceExport, ValidatorRejectsBrokenDocuments) {
  using telemetry::validate_trace_event_json;
  EXPECT_FALSE(validate_trace_event_json("not json").ok());
  EXPECT_FALSE(validate_trace_event_json("{}").ok());
  EXPECT_FALSE(validate_trace_event_json("{\"traceEvents\": 3}").ok());
  // Missing required field (no ts).
  EXPECT_FALSE(
      validate_trace_event_json(
          "{\"traceEvents\":[{\"ph\":\"B\",\"pid\":1,\"tid\":1,"
          "\"name\":\"x\"}]}")
          .ok());
  // Decreasing ts.
  EXPECT_FALSE(
      validate_trace_event_json(
          "{\"traceEvents\":["
          "{\"ph\":\"B\",\"ts\":5.0,\"pid\":1,\"tid\":1,\"name\":\"x\"},"
          "{\"ph\":\"E\",\"ts\":4.0,\"pid\":1,\"tid\":1,\"name\":\"x\"}]}")
          .ok());
  // B left open.
  EXPECT_FALSE(
      validate_trace_event_json(
          "{\"traceEvents\":["
          "{\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1,\"name\":\"x\"}]}")
          .ok());
  // E without a B.
  EXPECT_FALSE(
      validate_trace_event_json(
          "{\"traceEvents\":["
          "{\"ph\":\"E\",\"ts\":1.0,\"pid\":1,\"tid\":1,\"name\":\"x\"}]}")
          .ok());
  // Mismatched close name on the same track.
  EXPECT_FALSE(
      validate_trace_event_json(
          "{\"traceEvents\":["
          "{\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1,\"name\":\"x\"},"
          "{\"ph\":\"E\",\"ts\":2.0,\"pid\":1,\"tid\":1,\"name\":\"y\"}]}")
          .ok());
  // The minimal well-formed document passes.
  EXPECT_TRUE(
      validate_trace_event_json(
          "{\"traceEvents\":["
          "{\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":1,\"name\":\"x\"},"
          "{\"ph\":\"E\",\"ts\":2.0,\"pid\":1,\"tid\":1,\"name\":\"x\"}]}")
          .ok());
}

// Two same-seed runs export byte-identical trace AND profile documents —
// including under loss, where drop/retransmit instants are part of the
// timeline.
TEST(TraceExport, SameSeedExportsAreByteIdentical) {
  const TraceCapture a =
      capture_run(perf::Mode::kRdSendRecv, 1024, 10, 42, 0.05);
  const TraceCapture b =
      capture_run(perf::Mode::kRdSendRecv, 1024, 10, 42, 0.05);
  const std::string ta = a.trace_event_json();
  EXPECT_FALSE(ta.empty());
  EXPECT_EQ(ta, b.trace_event_json());
  EXPECT_EQ(a.profile_json(), b.profile_json());

  // A different workload genuinely changes the document (the comparison
  // above is not vacuous). A different *seed* may legitimately export the
  // same bytes when neither run drops anything — virtual time is otherwise
  // deterministic.
  const TraceCapture c =
      capture_run(perf::Mode::kRdSendRecv, 1024, 11, 42, 0.05);
  EXPECT_NE(ta, c.trace_event_json());
}

// Multi-run absorption: each run lands on its own stretch of the merged
// timeline (separated by kRunGapNs) with globally unique span ids.
TEST(TraceExport, MultiRunTimelinesDoNotOverlap) {
  TraceCapture cap;
  perf::Options opts;
  opts.trace = &cap;
  (void)perf::measure_latency(perf::Mode::kUdSendRecv, 512, 3, opts);
  const auto first_n = cap.spans().size();
  TimeNs first_max = 0;
  for (const auto& s : cap.spans()) first_max = std::max(first_max, s.end);
  (void)perf::measure_latency(perf::Mode::kUdSendRecv, 512, 3, opts);

  EXPECT_EQ(cap.runs(), 2u);
  EXPECT_GT(cap.spans().size(), first_n);
  std::set<u64> ids;
  for (const auto& s : cap.spans()) EXPECT_TRUE(ids.insert(s.id).second);
  for (std::size_t i = first_n; i < cap.spans().size(); ++i)
    EXPECT_GE(cap.spans()[i].start, first_max + TraceCapture::kRunGapNs);
  EXPECT_TRUE(
      telemetry::validate_trace_event_json(cap.trace_event_json()).ok());
}

// File round-trip: the written trace is a file the validator accepts.
TEST(TraceExport, WriteTraceRoundTrips) {
  const TraceCapture cap = capture_run(perf::Mode::kUdSendRecv, 256, 2);
  const std::string path = ::testing::TempDir() + "dgi_trace_export.json";
  ASSERT_TRUE(telemetry::write_file(path, cap.trace_event_json()).ok());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(body, cap.trace_event_json());
  EXPECT_TRUE(telemetry::validate_trace_event_json(body).ok());
}

}  // namespace
}  // namespace dgiwarp
