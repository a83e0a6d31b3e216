// Figure 8: UD RDMA Write-Record bandwidth under packet loss.
//
// Partial placement: each 64 KB stack-level segment that arrives is placed
// and declared valid even when sibling segments die, so goodput degrades
// gracefully for messages above 64 KB — except that losing a message's
// FINAL segment still discards its record (the paper's caveat), which is
// what breaks very large messages at 5% loss.
#include "bench_util.hpp"

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  bench::banner("Figure 8 — UD Write-Record bandwidth under packet loss",
                "partial placement keeps goodput high for multi-segment "
                "messages at low loss; dip at 64KB (first multi-datagram "
                "size); 5% loss still breaks large messages");
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  telemetry::Registry metrics;

  const double rates[] = {0.001, 0.005, 0.01, 0.05};
  TablePrinter t({"size", "0.1% loss", "0.5% loss", "1% loss", "5% loss",
                  "(goodput MB/s)"});
  TablePrinter d({"size", "0.1% dlvd", "0.5% dlvd", "1% dlvd", "5% dlvd",
                  "(valid bytes fraction)"});
  for (std::size_t sz = 64; sz <= 1 * MiB; sz *= 4) {
    std::vector<std::string> row{TablePrinter::fmt_size(sz)};
    std::vector<std::string> frac{TablePrinter::fmt_size(sz)};
    for (double p : rates) {
      perf::Options opts;
      opts.loss_rate = p;
      opts.metrics = &metrics;
      auto r = perf::measure_bandwidth(
          Mode::kUdWriteRecord, sz,
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
  std::printf("\nvalid-bytes fraction (partial messages count):\n");
  d.print();
  bench::dump_metrics(metrics, args.metrics_json);
  return 0;
}
