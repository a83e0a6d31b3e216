// Figure 11: SIP server memory-usage improvement of UD over RC at 100 /
// 1000 / 10000 concurrent calls.
//
// Memory is the host MemLedger total: application call state + socket slab
// + buffers + iWARP QP state — the paper's "whole application space memory
// usage comparison including kernel space memory for the sockets". The
// "theoretical" column excludes the application's own per-call bookkeeping
// (the paper's socket-size-only prediction of 28.1%).
//
// Exits 1, naming the reason on stderr, when a run brings up fewer calls
// than it asked for or the process's peak RSS is above kMaxPeakRssMb.
#include "apps/sip/agents.hpp"
#include "bench_util.hpp"
#include "simnet/topology.hpp"

using namespace dgiwarp;

namespace {

// About 20 % above the peak RSS of a default run, 282 MB (VmHWM, which
// the run prints on stderr). ASan builds skip the check, as fig12's does:
// shadow memory and the allocator's quarantine inflate RSS several times.
constexpr double kMaxPeakRssMb = 340.0;

struct MemResult {
  i64 total = 0;   // whole-stack per the ledger
  i64 app = 0;     // application call bookkeeping only
  std::size_t calls = 0;
};

MemResult measure(sip::Transport t, std::size_t calls) {
  sim::Topology topo;
  host::Host server_host(topo, "server");
  host::Host client_host(topo, "client");
  verbs::Device dev_s(server_host), dev_c(client_host);
  isock::ISockConfig cfg;
  cfg.pool_slots = 2;      // per-call sockets keep a tiny ring
  cfg.slot_bytes = 2048;   // SIP messages are well under 2 KB
  isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);
  sip::SipServer server(io_s, t);
  if (!server.start().ok()) return {};
  topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);

  sip::SipClient client(io_c, t, server_host.endpoint(5060));
  const std::size_t up =
      client.establish_calls(calls, 120 * kSecond);

  MemResult r;
  r.calls = up;
  r.total = server_host.ledger().total();
  r.app = server_host.ledger().category("sip.call");
  return r;
}

}  // namespace

int main() {
  bench::banner("Figure 11 — SIP server memory usage, UD vs RC",
                "~24.1% whole-application improvement at 10000 calls; "
                "socket-state-only prediction ~28.1%");

  int exit_code = 0;
  TablePrinter t({"concurrent calls", "RC total (KB)", "UD total (KB)",
                  "improvement", "sockets-only"});
  for (std::size_t n : {std::size_t{100}, std::size_t{1000},
                        std::size_t{10000}}) {
    const MemResult rc = measure(sip::Transport::kRc, n);
    const MemResult ud = measure(sip::Transport::kUd, n);
    if (rc.calls < n || ud.calls < n) {
      std::fprintf(stderr, "FAIL: only %zu/%zu (RC) and %zu/%zu (UD) calls "
                   "came up\n", rc.calls, n, ud.calls, n);
      exit_code = 1;
    }
    const double whole = bench::pct_improvement(
        static_cast<double>(ud.total), static_cast<double>(rc.total));
    const double sockets_only = bench::pct_improvement(
        static_cast<double>(ud.total - ud.app),
        static_cast<double>(rc.total - rc.app));
    t.add_row({std::to_string(n),
               TablePrinter::fmt(static_cast<double>(rc.total) / 1024.0, 0),
               TablePrinter::fmt(static_cast<double>(ud.total) / 1024.0, 0),
               TablePrinter::fmt(whole, 1) + "%",
               TablePrinter::fmt(sockets_only, 1) + "%"});
  }
  t.print();
  std::printf("\npaper: 24.1%% measured / 28.1%% theoretical at 10000 "
              "calls\n");

  // Detailed breakdown at 1000 calls for the curious.
  std::printf("\nper-category server ledger at 1000 calls:\n");
  {
    sim::Topology topo;
    host::Host server_host(topo, "server");
    host::Host client_host(topo, "client");
    verbs::Device dev_s(server_host), dev_c(client_host);
    isock::ISockConfig cfg;
    cfg.pool_slots = 2;
    cfg.slot_bytes = 2048;
    isock::ISockStack io_s(dev_s, cfg), io_c(dev_c, cfg);
    sip::SipServer server(io_s, sip::Transport::kUd);
    (void)server.start();
    topo.sim().run_until(topo.sim().now() + 2 * kMillisecond);
    sip::SipClient client(io_c, sip::Transport::kUd,
                          server_host.endpoint(5060));
    const std::size_t up = client.establish_calls(1000, 60 * kSecond);
    server_host.ledger().dump("UD server");
    if (up < 1000) {
      std::fprintf(stderr, "FAIL: only %zu/1000 (UD) calls came up for the "
                   "ledger breakdown\n", up);
      exit_code = 1;
    }
  }

  const double rss_mb = bench::peak_rss_mb();
  std::fprintf(stderr, "peak RSS (VmHWM): %.1f MB\n", rss_mb);
#if !defined(__SANITIZE_ADDRESS__)
  if (rss_mb > kMaxPeakRssMb) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB is above %.0f MB\n", rss_mb,
                 kMaxPeakRssMb);
    exit_code = 1;
  }
#endif
  return exit_code;
}
