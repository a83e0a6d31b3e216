// Figure 7: UD send/recv bandwidth under packet loss (0.1/0.5/1/5 %).
//
// Send/recv is all-or-nothing: a message survives only if EVERY wire
// fragment of EVERY datagram arrives, so goodput collapses as message size
// grows — earlier for higher loss rates.
#include "bench_util.hpp"

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  bench::banner("Figure 7 — UD send/recv bandwidth under packet loss",
                "multi-packet messages collapse under loss (all-or-nothing "
                "delivery); 5% loss breaks everything above the wire MTU");
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  telemetry::Registry metrics;

  const double rates[] = {0.001, 0.005, 0.01, 0.05};
  TablePrinter t({"size", "0.1% loss", "0.5% loss", "1% loss", "5% loss",
                  "(goodput MB/s)"});
  TablePrinter d({"size", "0.1% dlvd", "0.5% dlvd", "1% dlvd", "5% dlvd",
                  "(fraction)"});
  for (std::size_t sz = 64; sz <= 1 * MiB; sz *= 4) {
    std::vector<std::string> row{TablePrinter::fmt_size(sz)};
    std::vector<std::string> frac{TablePrinter::fmt_size(sz)};
    for (double p : rates) {
      perf::Options opts;
      opts.loss_rate = p;
      opts.metrics = &metrics;
      auto r = perf::measure_bandwidth(
          Mode::kUdSendRecv, sz,
          perf::default_message_count(sz, 8 * MiB), opts);
      row.push_back(TablePrinter::fmt(r.goodput_MBps));
      frac.push_back(TablePrinter::fmt(r.delivered_frac));
    }
    row.push_back("");
    frac.push_back("");
    t.add_row(std::move(row));
    d.add_row(std::move(frac));
  }
  t.print();
  std::printf("\ndelivered fraction (complete messages only):\n");
  d.print();
  bench::dump_metrics(metrics, args.metrics_json);
  return 0;
}
