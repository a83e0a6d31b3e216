// Perfetto / Chrome trace_event export for message-lifecycle spans.
//
// TraceCapture accumulates spans, trace-ring events and profiler buckets
// across one or more measurement Simulations (the perf harness builds a
// fresh Topology per run, so each run's virtual clock restarts at 0 — the
// capture shifts every absorbed timestamp and span id past the previous
// run's, keeping the merged timeline monotonic and ids unique).
//
// trace_event_json() renders the capture in the Chrome trace_event JSON
// format (the "JSON Array Format" chrome://tracing and ui.perfetto.dev
// ingest): spans become B/E duration pairs on pid = origin node,
// tid = span id, with nested B/E sub-slices for each latency phase, and
// drops/retransmits become instant events. ts is microseconds with
// nanosecond precision ("%llu.%03llu" — integer math, so same-seed runs
// export byte-identical documents).
//
// validate_trace_event_json() is the schema gate every trace export passes
// (golden.fig5_latency runs it): well-formed JSON, globally non-decreasing
// ts, and matched B/E pairs per (pid, tid) track.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace dgiwarp::telemetry {

class TraceCapture {
 public:
  /// Gap inserted between absorbed runs so their timelines never touch.
  static constexpr TimeNs kRunGapNs = 1 * kMillisecond;

  /// Drain `reg`'s spans (take_all), snapshot its trace ring, and fold in
  /// its profiler buckets. `nodes` names the link addresses for process
  /// metadata (e.g. {{1, "sender"}, {2, "receiver"}}). Timestamps and span
  /// ids are shifted past everything absorbed before.
  void absorb(Registry& reg,
              const std::vector<std::pair<u32, std::string>>& nodes = {});

  std::size_t runs() const { return runs_; }
  const std::vector<Span>& spans() const { return spans_; }
  const CostProfiler& profiler() const { return profiler_; }

  std::string trace_event_json() const;
  /// Profiler buckets + per-phase span totals as one JSON document.
  std::string profile_json() const;

  Status write_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<TraceEvent> events_;
  std::map<u32, std::string> nodes_;
  CostProfiler profiler_;
  TimeNs time_offset_ = 0;
  u64 id_offset_ = 0;
  std::size_t runs_ = 0;
};

/// Minimal trace_event schema check, streamed through the json_lite.hpp
/// reader: the document must be an object with a "traceEvents" array of
/// objects; every event needs ph/ts/pid/tid; ts must be non-decreasing in
/// document order; every "B" must be closed by a matching-name "E" on the
/// same (pid, tid) with no track left open.
Status validate_trace_event_json(std::string_view json);

}  // namespace dgiwarp::telemetry
