// Ablation A4: the reliable-datagram (RD) option.
//
// The paper proposes supplementing UD with "a reliability mechanism (like
// reliable UDP)" for applications that cannot tolerate loss. This compares
// raw UD, RD and RC under loss: RD restores full delivery while keeping
// the connectionless memory/scaling profile.
#include "bench_util.hpp"

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  bench::BenchArgs::parse(argc, argv, bench::kNoFlags);
  bench::banner("Ablation — reliable datagrams (RD) vs UD vs RC under loss",
                "RD recovers every message at a modest throughput cost; "
                "raw UD drops messages; RC recovers via TCP but with "
                "connection overheads");

  const std::size_t kMsg = 16 * KiB;
  const double rates[] = {0.0, 0.005, 0.02};
  TablePrinter t({"loss", "mode", "goodput (MB/s)", "delivered"});
  for (double p : rates) {
    for (Mode m : {Mode::kUdSendRecv, Mode::kRdSendRecv, Mode::kRcSendRecv}) {
      perf::Options opts;
      opts.loss_rate = p;
      auto r = perf::measure_bandwidth(
          m, kMsg, perf::default_message_count(kMsg, 8 * MiB), opts);
      t.add_row({TablePrinter::fmt(p * 100.0, 1) + "%", perf::mode_name(m),
                 TablePrinter::fmt(r.goodput_MBps),
                 TablePrinter::fmt(r.delivered_frac * 100.0, 1) + "%"});
    }
  }
  t.print();

  std::printf("\nRD Write-Record under 1%% loss (reliable one-sided "
              "writes):\n");
  perf::Options opts;
  opts.loss_rate = 0.01;
  auto r = perf::measure_bandwidth(Mode::kRdWriteRecord, kMsg,
                                   perf::default_message_count(kMsg, 8 * MiB),
                                   opts);
  std::printf("  goodput %.2f MB/s, delivered %.1f%%\n", r.goodput_MBps,
              r.delivered_frac * 100.0);
  return 0;
}
