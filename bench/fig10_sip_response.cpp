// Figure 10: SIP request/response time under light load, UD vs RC.
#include "apps/sip/agents.hpp"
#include "bench_util.hpp"
#include "simnet/topology.hpp"

using namespace dgiwarp;

namespace {

double measure(sip::Transport t) {
  sim::Topology topo;
  host::Host server_host(topo, "server");
  host::Host client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockConfig cfg;
  cfg.pool_slots = 8;
  cfg.slot_bytes = 2048;
  isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);
  sip::SipServer server(io_s, t);
  if (!server.start().ok()) return -1;
  topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);  // settle

  sip::SipClient client(io_c, t, server_host.endpoint(5060));
  Samples samples;
  for (int i = 0; i < 10; ++i) {
    auto r = client.invite_response_time();
    if (r.ok()) samples.add(to_ms(*r));
    // Light load (paper §V): each sample starts quiescent — don't let the
    // previous call's teardown tail (BYE 200 + socket close) queue the
    // next INVITE behind residual CPU work.
    topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);
  }
  return samples.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs::parse(argc, argv, bench::kNoFlags);
  bench::banner("Figure 10 — SIP response time (INVITE -> 200 OK)",
                "UD responds ~43.1% faster than RC (paper: ~0.35ms vs "
                "~0.6ms including SIPp app processing)");

  const double ud = measure(sip::Transport::kUd);
  const double rc = measure(sip::Transport::kRc);

  TablePrinter t({"transport", "response time (ms)"});
  t.add_row({"UD", TablePrinter::fmt(ud, 3)});
  t.add_row({"RC", TablePrinter::fmt(rc, 3)});
  t.print();

  std::printf("\npaper: UD improves response time by 43.1%% -> measured "
              "%.1f%%\n",
              bench::pct_improvement(ud, rc));
  return 0;
}
