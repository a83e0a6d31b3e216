// Ablation A2: DDP-layer CRC32 on the UD path.
//
// Datagram-iWARP mandates CRC32 at the DDP layer (and recommends disabling
// the UDP checksum instead, which this stack models). This quantifies what
// that integrity protection costs.
#include "bench_util.hpp"

using namespace dgiwarp;
using perf::Mode;

int main(int argc, char** argv) {
  bench::BenchArgs::parse(argc, argv, bench::kNoFlags);
  bench::banner("Ablation — DDP CRC32 on the UD path",
                "the mandated CRC is a per-byte cost; the paper accepts it "
                "in exchange for disabling the (redundant) UDP checksum");

  TablePrinter t({"size", "UD crc ON (MB/s)", "UD crc OFF (MB/s)",
                  "crc cost"});
  for (std::size_t sz : {std::size_t{1} * KiB, 16 * KiB, 64 * KiB,
                         256 * KiB, 1 * MiB}) {
    perf::Options on;
    perf::Options off;
    off.ud_crc = false;
    const auto n = perf::default_message_count(sz);
    const double bw_on =
        perf::measure_bandwidth(Mode::kUdWriteRecord, sz, n, on).goodput_MBps;
    const double bw_off =
        perf::measure_bandwidth(Mode::kUdWriteRecord, sz, n, off).goodput_MBps;
    t.add_row({TablePrinter::fmt_size(sz), TablePrinter::fmt(bw_on),
               TablePrinter::fmt(bw_off),
               TablePrinter::fmt((bw_off - bw_on) / bw_off * 100.0, 1) + "%"});
  }
  t.print();

  std::printf("\nlatency at 64B: crc ON %.2f us, OFF %.2f us\n",
              perf::measure_latency(Mode::kUdWriteRecord, 64, 16).half_rtt_us,
              [] {
                perf::Options off;
                off.ud_crc = false;
                return perf::measure_latency(Mode::kUdWriteRecord, 64, 16,
                                             off)
                    .half_rtt_us;
              }());
  return 0;
}
