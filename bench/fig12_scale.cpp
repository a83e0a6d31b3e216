// Figure 12 (extension): node-array scale run.
//
// The paper's experiments stop at two endpoints and one switch; the
// scalability argument for datagram-iWARP (§VI.B.2, memory at 10000
// concurrent calls) is made on a single server. This bench extends that
// argument to a datacenter-shaped topology: 1000 hosts spread over 8 leaf
// switches joined by a 2-cable spine LAG, running 500 independent SIP
// tenants with 20 concurrent calls each — 10000 concurrent transactions in
// one discrete-event simulation.
//
// The run executes TWICE with the same seed and the metrics registries are
// compared byte-for-byte: the process exits non-zero on any divergence,
// making this bench the determinism gate for the Topology/ClusterHarness
// layers.
//
// It also gates the simulator's own memory: the process's peak RSS goes to
// stderr (stdout is unchanged), and above kMaxPeakRssMb the bench exits
// non-zero. Most pages of the 500 SIP listening rings are never written,
// and as mapped regions (common/region.hpp) they cost no RSS; the gate
// fails a change that loses that.
//
// --strict-health arms the cluster watchdog (trunk stuck-queue rules on all
// 32 spine LAG members plus a per-tenant server mem-leak rule) over both
// runs and fails the bench on any trip, dumping a flight recorder;
// --timeseries-json samples trunk queue depths, fleet counters and the
// first tenants' memory into a schema document.
#include "bench_util.hpp"
#include "perf/cluster.hpp"

#include <algorithm>

using namespace dgiwarp;

namespace {

perf::ClusterConfig scale_config() {
  perf::ClusterConfig cfg;
  cfg.topo.leaves = 8;
  cfg.topo.trunk_cables = 2;
  // 125 hosts per leaf at 10G versus a 2x10G trunk: 62.5x oversubscribed,
  // which SIP's tiny messages tolerate (media streaming would not).
  cfg.pairs = 500;
  cfg.calls_per_pair = 20;
  cfg.transport = sip::Transport::kUd;
  cfg.deadline = 240 * kSecond;
  return cfg;
}

struct RunOutcome {
  perf::ClusterReport report;
  std::string metrics;
  std::string timeseries;  // sampler fragment (empty unless sampling)
};

// Peak RSS the bench may reach without --trace-json, which keeps every
// span and trace event (~860 MB). ASan builds skip the check: shadow
// memory and the allocator's quarantine inflate RSS several times over.
constexpr double kMaxPeakRssMb = 250.0;

RunOutcome run_once(telemetry::TraceCapture* trace,
                    const perf::ClusterConfig::Health& health) {
  perf::ClusterConfig cfg = scale_config();
  cfg.trace = trace;
  cfg.health = health;
  perf::ClusterHarness cluster(cfg);
  RunOutcome out;
  out.report = cluster.run_sip();
  out.metrics = cluster.metrics_json();
  if (health.sample)
    out.timeseries =
        cluster.topology().sim().telemetry().sampler().run_json();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 12 — node-array scale: 1000 hosts, 10000 SIP calls",
                "extends the paper's 10000-call single-server memory "
                "experiment (Fig. 11) to a 1000-node leaf-spine fabric");

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);

  // --trace-json: capture spans/trace/profiler. Both runs are captured with
  // identical config — tracing (like health sampling/watching) changes
  // which registry keys accumulate, so the determinism comparison below is
  // only valid because both runs share one config.
  telemetry::TraceCapture capture;
  telemetry::TraceCapture* trace =
      args.trace_json.empty() ? nullptr : &capture;
  perf::ClusterConfig::Health health;
  health.watch = args.strict_health;
  health.sample = !args.timeseries_json.empty();

  const RunOutcome a = run_once(trace, health);
  const auto& rep = a.report;

  std::printf("topology: %zu hosts, 8 leaves, 2-cable spine LAG\n",
              rep.nodes);
  std::printf("calls:    %zu requested, %zu established, %zu terminated\n",
              rep.calls_requested, rep.established, rep.terminated);
  std::printf("events:   %llu executed, %.1f ms virtual time\n",
              static_cast<unsigned long long>(rep.events),
              static_cast<double>(rep.virtual_time) / 1e6);
  std::printf("setup:    all calls up %.1f ms after first INVITE\n\n",
              static_cast<double>(rep.setup_time) / 1e6);

  // Per-tenant MemLedger totals: every tenant is an isolated server+client
  // host pair, so the ledger cleanly attributes memory per tenant.
  i64 min_total = 0, max_total = 0, sum_total = 0;
  for (const auto& t : rep.tenants) {
    if (t.server_total < min_total || min_total == 0)
      min_total = t.server_total;
    max_total = std::max(max_total, t.server_total);
    sum_total += t.server_total;
  }
  TablePrinter t({"tenant", "calls up", "server KB", "app KB", "client KB"});
  for (std::size_t i = 0; i < std::min<std::size_t>(rep.tenants.size(), 4);
       ++i) {
    const auto& ts = rep.tenants[i];
    t.add_row({ts.name, std::to_string(ts.established),
               TablePrinter::fmt(static_cast<double>(ts.server_total) / 1024.0,
                                 1),
               TablePrinter::fmt(static_cast<double>(ts.server_app) / 1024.0,
                                 1),
               TablePrinter::fmt(static_cast<double>(ts.client_total) / 1024.0,
                                 1)});
  }
  t.print();
  std::printf("(%zu tenants; per-tenant server ledger min/mean/max = "
              "%.1f / %.1f / %.1f KB, fleet total %.1f MB)\n\n",
              rep.tenants.size(),
              static_cast<double>(min_total) / 1024.0,
              static_cast<double>(sum_total) / 1024.0 /
                  static_cast<double>(std::max<std::size_t>(
                      rep.tenants.size(), 1)),
              static_cast<double>(max_total) / 1024.0,
              static_cast<double>(rep.server_mem_total) / (1024.0 * 1024.0));

  // Determinism gate: an identical second run must produce an identical
  // metrics registry (every counter, gauge and histogram bucket) and, when
  // sampling, an identical time-series fragment.
  const RunOutcome b = run_once(trace, health);
  const bool identical = a.metrics == b.metrics &&
                         a.report.events == b.report.events &&
                         a.report.established == b.report.established &&
                         a.timeseries == b.timeseries;
  std::printf("determinism: second run %s (events %llu vs %llu, metrics "
              "json %zu vs %zu bytes)\n",
              identical ? "IDENTICAL" : "DIVERGED",
              static_cast<unsigned long long>(a.report.events),
              static_cast<unsigned long long>(b.report.events),
              a.metrics.size(), b.metrics.size());

  if (!args.metrics_json.empty()) {
    bench::write_text_file(args.metrics_json, a.metrics, "metrics");
    std::printf("\nmetrics written to %s\n", args.metrics_json.c_str());
  }

  if (health.sample)
    bench::dump_timeseries(
        telemetry::timeseries_document({{"scale", a.timeseries}}),
        args.timeseries_json);

  if (trace) bench::dump_capture(capture, args.trace_json, "");

  int rc = 0;
  if (!identical) {
    std::fprintf(stderr, "FAIL: seeded scale run is not deterministic\n");
    rc = 1;
  }
  if (rep.established < rep.calls_requested) {
    std::fprintf(stderr, "FAIL: only %zu/%zu calls established\n",
                 rep.established, rep.calls_requested);
    rc = 1;
  }
  if (args.strict_health) {
    const std::size_t trips =
        a.report.watchdog_trips + b.report.watchdog_trips;
    if (trips > 0) {
      std::fprintf(stderr, "FAIL: --strict-health saw %zu watchdog trip(s) "
                           "across %llu checks\n",
                   trips,
                   static_cast<unsigned long long>(a.report.watchdog_checks +
                                                   b.report.watchdog_checks));
      rc = 1;
    } else {
      std::printf("health: watchdog clean — %llu checks, 0 trips "
                  "(both runs)\n",
                  static_cast<unsigned long long>(a.report.watchdog_checks +
                                                  b.report.watchdog_checks));
    }
    // Trip or gate failure: leave the post-mortem on disk.
    const std::string flight_path =
        args.flight_json.empty() ? "fig12_flight.json" : args.flight_json;
    if (rc != 0) bench::dump_flight(a.report.flight, flight_path);
  }
  const double rss_mb = bench::peak_rss_mb();
  std::fprintf(stderr, "peak RSS (VmHWM): %.1f MB\n", rss_mb);
#if !defined(__SANITIZE_ADDRESS__)
  if (!trace && rss_mb > kMaxPeakRssMb) {
    std::fprintf(stderr, "FAIL: peak RSS %.1f MB is above %.0f MB\n", rss_mb,
                 kMaxPeakRssMb);
    rc = 1;
  }
#endif
  return rc;
}
