// Partial-placement demo: what RDMA Write-Record reports when packets die.
//
// Sends one large multi-segment message across a lossy link and prints the
// target's validity map — the per-range record of which bytes arrived —
// alongside what send/recv would have delivered (nothing, unless every
// segment made it).
//
//   $ ./lossy_link_demo [loss%] [--metrics-json <path>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "simnet/topology.hpp"
#include "telemetry/json_lite.hpp"
#include "verbs/device.hpp"
#include "verbs/qp_ud.hpp"

using namespace dgiwarp;

namespace {

// [loss%] [--metrics-json <path>], parsed in one pass. A flag given last
// without its path, or any other argument, prints a usage line naming it
// on stderr and exits 2.
struct Args {
  double loss = 2.0 / 100.0;
  std::string metrics_json;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool metrics = std::strcmp(arg, "--metrics-json") == 0;
    if (metrics && i + 1 < argc) {
      a.metrics_json = argv[++i];
    } else if (i == 1 && arg[0] != '-') {
      a.loss = std::atof(arg) / 100.0;
    } else {
      std::fprintf(stderr,
                   "%s: %s %s\nusage: %s [loss%%] [--metrics-json <path>]\n",
                   argv[0], arg,
                   metrics ? "needs a <path>" : "is not an argument here",
                   argv[0]);
      std::exit(2);
    }
  }
  return a;
}

// A requested dump that cannot be written fails the run (exit 1).
void dump_metrics(sim::Topology& topo, const std::string& path) {
  if (path.empty()) return;
  if (!telemetry::write_file(path, topo.sim().telemetry().to_json()).ok()) {
    std::fprintf(stderr, "failed to write metrics to %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("\nmetrics written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const double loss = args.loss;

  sim::Topology topo;
  // Structured event tracing (drops, placements, expiries) is off by
  // default; a demo is exactly where its timeline earns its cost.
  topo.sim().telemetry().trace().enable();
  host::Host src(topo, "source");
  host::Host dst(topo, "target");
  verbs::Device dev_s(src), dev_d(dst);
  verbs::ProtectionDomain pd_s(src), pd_d(dst);
  auto cq_s = dev_s.create_cq();
  auto cq_d = dev_d.create_cq();
  auto qs = *dev_s.create_ud_qp({&pd_s, cq_s.get(), cq_s.get(), 0, false});
  auto qd = *dev_d.create_ud_qp({&pd_d, cq_d.get(), cq_d.get(), 0, false});

  topo.host_uplink(0).set_faults(sim::Faults::bernoulli(loss));

  const std::size_t kMsg = 512 * KiB;  // eight 64 KB stack-level segments
  Bytes region(kMsg, 0);
  auto mr = pd_d.register_memory(ByteSpan{region},
                                 verbs::kLocalWrite | verbs::kRemoteWrite);

  Bytes message = make_pattern(kMsg, 7);
  verbs::SendWr wr;
  wr.wr_id = 1;
  wr.opcode = verbs::WrOpcode::kWriteRecord;
  wr.local = ConstByteSpan{message};
  wr.remote = {qd->local_ep(), qd->qpn()};
  wr.remote_stag = mr.stag;
  (void)qs->post_send(wr);

  std::printf("wrote %zu KB across a link dropping %.1f%% of packets\n",
              kMsg / 1024, loss * 100.0);

  auto rec = cq_d->wait(kSecond);
  if (!rec) {
    std::printf("no record completion: the FINAL segment was lost, so the "
                "whole message's record was discarded (paper §VI.A.2)\n");
    // Only the target receives, so the registry's UD count is its own.
    std::printf("(the target still placed %llu segments, but cannot declare "
                "them valid)\n",
                static_cast<unsigned long long>(
                    topo.sim().telemetry().counter_value(
                        "verbs.ud.segments_rx")));
    dump_metrics(topo, args.metrics_json);
    return 0;
  }

  std::printf("record completion: %zu of %zu bytes valid (%.1f%%) in %zu "
              "contiguous range(s):\n",
              rec->validity.valid_bytes(), kMsg,
              rec->validity.coverage(static_cast<u32>(kMsg)) * 100.0,
              rec->validity.ranges().size());
  for (const auto& r : rec->validity.ranges())
    std::printf("  [%8u, %8u)  %6u bytes\n", r.offset, r.offset + r.length,
                r.length);

  std::printf("\nfor comparison, send/recv semantics would deliver: %s\n",
              rec->validity.complete(static_cast<u32>(kMsg))
                  ? "the full message (nothing was lost)"
                  : "NOTHING (all-or-nothing delivery)");
  dump_metrics(topo, args.metrics_json);
  return 0;
}
