// Figure 5: verbs ping-pong latency (small / medium / large panels) for
// UD send/recv, UD RDMA Write-Record, RC send/recv and RC RDMA Write.
//
// Flags: --metrics-json <path>   aggregate counters for all runs
//        --trace-json <path>     Chrome trace_event / Perfetto span export
//        --profile-json <path>   cost-profiler buckets + span phase totals
#include "bench_util.hpp"

#include "telemetry/span.hpp"

using namespace dgiwarp;
using perf::Mode;

namespace {

void panel(const char* name, const std::vector<std::size_t>& sizes, int iters,
           const perf::Options& opts) {
  std::printf("-- %s --\n", name);
  TablePrinter t({"size", "UD S/R (us)", "UD WriteRec (us)", "RC S/R (us)",
                  "RC Write (us)"});
  for (std::size_t sz : sizes) {
    t.add_row({TablePrinter::fmt_size(sz),
               TablePrinter::fmt(
                   perf::measure_latency(Mode::kUdSendRecv, sz, iters, opts)
                       .half_rtt_us),
               TablePrinter::fmt(
                   perf::measure_latency(Mode::kUdWriteRecord, sz, iters, opts)
                       .half_rtt_us),
               TablePrinter::fmt(
                   perf::measure_latency(Mode::kRcSendRecv, sz, iters, opts)
                       .half_rtt_us),
               TablePrinter::fmt(
                   perf::measure_latency(Mode::kRcRdmaWrite, sz, iters, opts)
                       .half_rtt_us)});
  }
  t.print();
  std::printf("\n");
}

/// Where the UD-vs-RC latency gap lives: mean per-message phase
/// decomposition from the lifecycle spans (DESIGN.md §7). The per-phase
/// sums reconstruct the end-to-end latency exactly, so "total" here is the
/// causal account of the panel numbers above.
void breakdown_panel(std::size_t sz, int iters) {
  std::printf("-- per-message latency breakdown at %s (mean us, from "
              "lifecycle spans) --\n",
              TablePrinter::fmt_size(sz).c_str());
  std::vector<std::string> cols{"mode"};
  for (u8 p = 0; p < telemetry::kSpanPhaseCount; ++p)
    cols.push_back(
        telemetry::span_phase_name(static_cast<telemetry::SpanPhase>(p)));
  cols.push_back("total");
  TablePrinter t(cols);
  for (Mode m : {Mode::kUdSendRecv, Mode::kUdWriteRecord, Mode::kRcSendRecv,
                 Mode::kRcRdmaWrite}) {
    telemetry::TraceCapture cap;
    perf::Options opts;
    opts.trace = &cap;
    (void)perf::measure_latency(m, sz, iters, opts);
    double phase_us[telemetry::kSpanPhaseCount] = {};
    double total_us = 0.0;
    std::size_t n = 0;
    for (const telemetry::Span& s : cap.spans()) {
      if (!s.completed || s.parent != 0) continue;
      const telemetry::SpanBreakdown b = telemetry::breakdown(s);
      for (u8 p = 0; p < telemetry::kSpanPhaseCount; ++p)
        phase_us[p] += to_us(b.phase_ns[p]);
      total_us += to_us(s.end - s.start);
      ++n;
    }
    std::vector<std::string> row{perf::mode_name(m)};
    for (u8 p = 0; p < telemetry::kSpanPhaseCount; ++p)
      row.push_back(n ? TablePrinter::fmt(phase_us[p] /
                                          static_cast<double>(n))
                      : "-");
    row.push_back(n ? TablePrinter::fmt(total_us / static_cast<double>(n))
                    : "-");
    t.add_row(row);
  }
  t.print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(
      argc, argv,
      bench::kMetricsJson | bench::kTraceJson | bench::kProfileJson);
  bench::banner("Figure 5 — verbs latency",
                "UD latency ~27-28us under 128B vs RC ~33us; UD S/R +18.1% "
                "and WriteRec +24.4% up to 2KB; RC slightly ahead 16-64KB; "
                "UD ahead again for large messages");
  telemetry::Registry metrics;
  telemetry::TraceCapture capture;
  perf::Options opts;
  if (!args.metrics_json.empty()) opts.metrics = &metrics;
  if (!args.trace_json.empty() || !args.profile_json.empty())
    opts.trace = &capture;

  panel("small messages", size_sweep(1, 1024), 20, opts);
  panel("medium messages", size_sweep(2 * KiB, 64 * KiB), 12, opts);
  panel("large messages", size_sweep(128 * KiB, 1 * MiB), 6, opts);

  breakdown_panel(2 * KiB, 16);

  // Headline claims.
  auto lat = [&](Mode m, std::size_t sz) {
    return perf::measure_latency(m, sz, 16, opts).half_rtt_us;
  };
  const double ud_sr = lat(Mode::kUdSendRecv, 2 * KiB);
  const double rc_sr = lat(Mode::kRcSendRecv, 2 * KiB);
  const double ud_wr = lat(Mode::kUdWriteRecord, 2 * KiB);
  const double rc_w = lat(Mode::kRcRdmaWrite, 2 * KiB);
  std::printf("paper: UD S/R improves on RC S/R by 18.1%% (<=2KB)   -> "
              "measured %.1f%%\n",
              bench::pct_improvement(ud_sr, rc_sr));
  std::printf("paper: WriteRec improves on RC Write by 24.4%% (<=2KB) -> "
              "measured %.1f%%\n",
              bench::pct_improvement(ud_wr, rc_w));

  bench::dump_metrics(metrics, args.metrics_json);
  bench::dump_capture(capture, args.trace_json, args.profile_json);
  return 0;
}
