// Ablation A3: per-datagram budget (the paper's MTU discussion, §IV.B.4).
//
// "It is preferable to package each message ... as a complete unit that
// spans only one datagram packet, preferably the size of the network MTU"
// on lossy networks, while 64 KB datagrams maximize efficiency on clean
// ones. This sweeps the stack's per-datagram budget at several loss rates.
#include "bench_util.hpp"

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  bench::BenchArgs::parse(argc, argv, bench::kNoFlags);
  bench::banner("Ablation — UD datagram budget (MTU-sized vs 64KB) under "
                "loss",
                "64KB datagrams win on clean links; MTU-sized datagrams "
                "win once loss amplification kicks in (IP fragmentation is "
                "all-or-nothing)");

  const std::size_t kMsg = 256 * KiB;
  const double rates[] = {0.0, 0.001, 0.005, 0.01, 0.05};
  TablePrinter t({"loss", "1472B datagrams (MB/s)", "8KB datagrams",
                  "64KB datagrams", "(WriteRec goodput, 256KB msgs)"});
  for (double p : rates) {
    std::vector<std::string> row{TablePrinter::fmt(p * 100.0, 1) + "%"};
    for (std::size_t budget : {std::size_t{1472}, std::size_t{8192},
                               std::size_t{65507}}) {
      perf::Options opts;
      opts.loss_rate = p;
      opts.max_ud_payload = budget;
      auto r = perf::measure_bandwidth(Mode::kUdWriteRecord, kMsg,
                                       perf::default_message_count(kMsg, 8 * MiB),
                                       opts);
      row.push_back(TablePrinter::fmt(r.goodput_MBps));
    }
    row.push_back("");
    t.add_row(std::move(row));
  }
  t.print();
  return 0;
}
