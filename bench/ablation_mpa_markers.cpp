// Ablation A1: what do MPA markers cost the RC path?
//
// The paper argues packet marking is "a high overhead activity" that
// datagram-iWARP avoids entirely. This ablation runs RC send/recv with
// markers on (standard) and off (as MPA permits when both peers agree),
// isolating their latency and bandwidth cost.
#include "bench_util.hpp"

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  bench::BenchArgs::parse(argc, argv, bench::kNoFlags);
  bench::banner("Ablation — MPA marker cost on the RC path",
                "markers are part of the UD advantage; removing them "
                "narrows but does not close the gap");

  TablePrinter t({"size", "RC markers ON (MB/s)", "RC markers OFF (MB/s)",
                  "UD (no MPA at all)"});
  for (std::size_t sz : {std::size_t{1} * KiB, 16 * KiB, 256 * KiB, 1 * MiB}) {
    perf::Options on;
    perf::Options off;
    off.mpa_markers = false;
    const auto n = perf::default_message_count(sz);
    t.add_row(
        {TablePrinter::fmt_size(sz),
         TablePrinter::fmt(
             perf::measure_bandwidth(Mode::kRcSendRecv, sz, n, on)
                 .goodput_MBps),
         TablePrinter::fmt(
             perf::measure_bandwidth(Mode::kRcSendRecv, sz, n, off)
                 .goodput_MBps),
         TablePrinter::fmt(
             perf::measure_bandwidth(Mode::kUdSendRecv, sz, n).goodput_MBps)});
  }
  t.print();

  std::printf("\nlatency at 64B: markers ON %.2f us, OFF %.2f us\n",
              perf::measure_latency(Mode::kRcSendRecv, 64, 16).half_rtt_us,
              [] {
                perf::Options off;
                off.mpa_markers = false;
                return perf::measure_latency(Mode::kRcSendRecv, 64, 16, off)
                    .half_rtt_us;
              }());
  return 0;
}
