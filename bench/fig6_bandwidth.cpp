// Figure 6: unidirectional verbs bandwidth, back-to-back messages,
// 1 B - 1 MB, all four modes.
//
// Flags: --metrics-json <path>   aggregate counters for all runs
#include "bench_util.hpp"

#include <map>
#include <utility>

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(
      argc, argv, bench::kMetricsJson);
  bench::banner("Figure 6 — unidirectional bandwidth",
                "UD WriteRec +256% over RC Write at 512KB; UD S/R +33.4% "
                "over RC S/R at 256KB; UD curves peak ~240-250 MB/s, RC S/R "
                "~180 MB/s, RC Write ~70 MB/s");
  telemetry::Registry metrics;
  perf::Options opts;
  if (!args.metrics_json.empty()) opts.metrics = &metrics;

  TablePrinter t({"size", "UD S/R", "UD WriteRec", "RC S/R", "RC Write",
                  "(MB/s)"});
  // Every point is measured once; the summary lines below reuse the table's.
  std::map<std::pair<Mode, std::size_t>, double> measured;
  auto bw = [&](Mode m, std::size_t sz) {
    return measured[{m, sz}] =
               perf::measure_bandwidth(m, sz, perf::default_message_count(sz),
                                       opts)
                   .goodput_MBps;
  };
  for (std::size_t sz : size_sweep(1, 1 * MiB)) {
    t.add_row({TablePrinter::fmt_size(sz),
               TablePrinter::fmt(bw(Mode::kUdSendRecv, sz)),
               TablePrinter::fmt(bw(Mode::kUdWriteRecord, sz)),
               TablePrinter::fmt(bw(Mode::kRcSendRecv, sz)),
               TablePrinter::fmt(bw(Mode::kRcRdmaWrite, sz)), ""});
  }
  t.print();

  std::printf("\npaper: UD WriteRec vs RC Write at 512KB: +256%%  -> "
              "measured +%.0f%%\n",
              bench::pct_higher(measured.at({Mode::kUdWriteRecord, 512 * KiB}),
                                measured.at({Mode::kRcRdmaWrite, 512 * KiB})));
  std::printf("paper: UD S/R vs RC S/R at 256KB: +33.4%%       -> "
              "measured +%.0f%%\n",
              bench::pct_higher(measured.at({Mode::kUdSendRecv, 256 * KiB}),
                                measured.at({Mode::kRcSendRecv, 256 * KiB})));
  std::printf("paper: UD WriteRec vs RC Write at 1KB: +188.8%%  -> "
              "measured +%.0f%%\n",
              bench::pct_higher(measured.at({Mode::kUdWriteRecord, 1 * KiB}),
                                measured.at({Mode::kRcRdmaWrite, 1 * KiB})));

  bench::dump_metrics(metrics, args.metrics_json);
  return 0;
}
