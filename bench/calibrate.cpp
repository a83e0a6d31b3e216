// Cost-model calibration summary: prints the headline metrics the model is
// tuned against (see hoststack/cost_model.hpp) next to the paper's values.
// Useful when adjusting CostModel constants.
#include <cstdio>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "perf/harness.hpp"

using namespace dgiwarp;

int main(int argc, char** argv) {
  bench::BenchArgs::parse(argc, argv, bench::kNoFlags);
  using perf::Mode;
  auto lat = [](Mode m, std::size_t sz) {
    return perf::measure_latency(m, sz, 20).half_rtt_us;
  };
  auto bw = [](Mode m, std::size_t sz) {
    return perf::measure_bandwidth(m, sz, perf::default_message_count(sz))
        .goodput_MBps;
  };

  std::printf("dgiwarp cost-model calibration (paper: IPDPS'11 §VI.A)\n\n");
  TablePrinter t({"metric", "paper", "model"});
  t.add_row({"UD S/R latency 64B (us)", "27-28",
             TablePrinter::fmt(lat(Mode::kUdSendRecv, 64))});
  t.add_row({"UD WR latency 64B (us)", "27-28",
             TablePrinter::fmt(lat(Mode::kUdWriteRecord, 64))});
  t.add_row({"RC S/R latency 64B (us)", "~33",
             TablePrinter::fmt(lat(Mode::kRcSendRecv, 64))});
  t.add_row({"RC Write latency 64B (us)", "~33",
             TablePrinter::fmt(lat(Mode::kRcRdmaWrite, 64))});
  t.add_row({"UD S/R latency 32K (us)", "RC wins band",
             TablePrinter::fmt(lat(Mode::kUdSendRecv, 32 * KiB))});
  t.add_row({"RC S/R latency 32K (us)", "(slightly lower)",
             TablePrinter::fmt(lat(Mode::kRcSendRecv, 32 * KiB))});
  t.add_row({"UD S/R latency 1M (us)", "UD wins large",
             TablePrinter::fmt(lat(Mode::kUdSendRecv, 1 * MiB))});
  t.add_row({"RC S/R latency 1M (us)", "",
             TablePrinter::fmt(lat(Mode::kRcSendRecv, 1 * MiB))});
  t.add_row({"UD S/R BW 256K (MB/s)", "~240",
             TablePrinter::fmt(bw(Mode::kUdSendRecv, 256 * KiB))});
  t.add_row({"RC S/R BW 256K (MB/s)", "~180 (UD +33.4%)",
             TablePrinter::fmt(bw(Mode::kRcSendRecv, 256 * KiB))});
  t.add_row({"UD WR BW 512K (MB/s)", "~250",
             TablePrinter::fmt(bw(Mode::kUdWriteRecord, 512 * KiB))});
  t.add_row({"RC Write BW 512K (MB/s)", "~70 (UD +256%)",
             TablePrinter::fmt(bw(Mode::kRcRdmaWrite, 512 * KiB))});
  t.add_row({"UD WR BW 1K (MB/s)", "RC x~2.9 lower",
             TablePrinter::fmt(bw(Mode::kUdWriteRecord, 1 * KiB))});
  t.add_row({"RC Write BW 1K (MB/s)", "",
             TablePrinter::fmt(bw(Mode::kRcRdmaWrite, 1 * KiB))});
  t.add_row({"UD S/R BW 1K (MB/s)", "RC x~2.9 lower",
             TablePrinter::fmt(bw(Mode::kUdSendRecv, 1 * KiB))});
  t.add_row({"RC S/R BW 1K (MB/s)", "",
             TablePrinter::fmt(bw(Mode::kRcSendRecv, 1 * KiB))});
  t.print();
  return 0;
}
