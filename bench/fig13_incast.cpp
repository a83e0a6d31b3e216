// Figure 13 (extension): K:1 incast over the leaf-spine trunk, with and
// without congestion control.
//
// The paper runs datagram-iWARP over a single uncongested switch; its loss
// experiments (Figs. 7-8) inject *random* loss. This bench creates the loss
// mode the paper never measures — deterministic congestive loss from a many-
// to-one traffic pattern — and shows the cc/ subsystem (ECN marking at the
// trunk queue + DCQCN/Timely rate control in RD) taming it:
//
//   K senders on leaf0 blast one receiver on leaf1 through a single-cable
//   trunk LAG whose output queue is bounded (tail drop) and ECN-marked.
//   Per cc mode {off, dcqcn, timely} the run reports trunk drops/marks,
//   CNPs, completion time, and Jain's fairness index over per-sender bytes
//   delivered at the 75%-delivered point.
//
// Self-gates (process exits non-zero on violation):
//   * every message delivers in every mode (reliability is not optional);
//   * each mode is deterministic: a second identical run must produce a
//     byte-identical metrics registry (and, when sampling, a byte-identical
//     time-series fragment);
//   * cc_mode=off drops frames at the congested trunk (the bench would be
//     vacuous otherwise);
//   * dcqcn and timely each cut trunk drops >= 5x at the same offered load;
//   * dcqcn and timely each keep Jain's fairness index >= 0.9.
//
// --smoke runs each mode once, skipping the determinism re-runs and
// ablations (ctest tier-1); --ablate appends the ECN-threshold and
// Timely-beta parameter sweeps that EXPERIMENTS.md quotes;
// --metrics-json <path> dumps the dcqcn registry (and per-point ablation
// registries next to it); --timeseries-json <path> samples trunk queue
// depth, per-sender cc rates, fleet counters and the simulator's event rate at
// 250 us cadence and exports the off/dcqcn/timely trajectories as one
// schema document; --strict-health arms the invariant watchdog over every
// run and turns any trip into a nonzero exit plus a flight-recorder dump;
// --inject-stall black-holes sender 0's uplink mid-run to demonstrate that
// the stalled-flow watchdog actually fires.
#include "bench_util.hpp"
#include "hoststack/host.hpp"
#include "rd/reliable.hpp"
#include "simnet/topology.hpp"

#include <map>
#include <memory>

using namespace dgiwarp;

namespace {

struct Setup {
  std::size_t senders = 8;
  // Synchronized request rounds — the incast pattern (all K respond to the
  // same query at once). Every round each sender bursts `burst` messages;
  // unpaced, a round's K*burst frames slam the trunk queue together.
  std::size_t rounds = 30;
  std::size_t burst = 20;                   // messages per sender per round
  TimeNs round_interval = 2 * kMillisecond;
  std::size_t msg_bytes = 1024;     // single-frame on the default MTU
  // The trunk is 10x slower than the 10G host links: bandwidth
  // oversubscription, not just fan-in, so the congestion survives the
  // hosts' own CPU-limited send pacing.
  double trunk_bps = 1e9;
  std::size_t queue_capacity = 64;  // trunk_up(0) tail-drop bound (frames)
  std::size_t ecn_threshold = 16;   // trunk_up(0) CE mark depth (frames)
  cc::CcParams cc;                  // per-mode tuning (ablations tweak it)
};

/// Observability knobs threaded into each run (from BenchArgs).
struct Obs {
  bool sample = false;        // --timeseries-json: arm the Sampler
  bool watch = false;         // --strict-health / --inject-stall: Watchdog
  bool inject_stall = false;  // black-hole tx0's uplink at t=5ms
};

struct IncastResult {
  u64 drops = 0;       // tail drops at the congested trunk queue
  u64 marks = 0;       // CE marks at the congested trunk queue
  u64 cnps = 0;        // CNP-flagged ACKs the receiver sent
  u64 retransmits = 0; // sender-side RD retries (all senders)
  double jfi = 0.0;    // Jain's fairness index at 75% delivered
  TimeNs finish = 0;   // virtual time when the last byte delivered
  u64 events = 0;
  bool all_delivered = false;
  std::string metrics;
  std::string timeseries;  // Sampler run fragment (empty unless sampling)
  std::string flight;      // flight-recorder JSON (empty unless watching)
  u64 checks = 0;          // watchdog rule evaluations
  std::vector<telemetry::WatchdogTrip> trips;
};

double jain_index(const std::map<u32, std::size_t>& per_sender) {
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& [ip, bytes] : per_sender) {
    const double x = static_cast<double>(bytes);
    sum += x;
    sum_sq += x * x;
  }
  const double n = static_cast<double>(per_sender.size());
  return sum_sq > 0.0 ? (sum * sum) / (n * sum_sq) : 0.0;
}

IncastResult run_incast(cc::CcMode mode, const Setup& su, const Obs& obs) {
  sim::Topology::Params tp;
  tp.leaves = 2;
  tp.trunk_cables = 1;
  tp.trunk_link.bandwidth_bps = su.trunk_bps;
  sim::Topology topo(tp);

  auto& reg = topo.sim().telemetry();
  if (obs.sample) {
    reg.sampler().enable(250 * kMicrosecond);  // 8 points per 2 ms round
  }
  if (obs.watch) {
    reg.watchdog().enable();  // cadence/thresholds: health.hpp constants
    // A flight-recorder dump without trace events is a black box; the
    // recorder's ring holds its newest kFlightTraceEvents.
    reg.trace().enable(telemetry::kFlightTraceEvents);
  }
  topo.attach_health();  // trunk queue-depth probes + stuck-queue watches

  // Round-robin placement (index % leaves): even indices land on leaf0,
  // odd on leaf1. Senders take the even slots, the receiver takes index 1,
  // and the remaining odd slots are idle pads that keep the alternation.
  std::vector<std::unique_ptr<host::Host>> hosts;
  std::vector<host::Host*> senders;
  host::Host* receiver = nullptr;
  for (std::size_t i = 0; i < 2 * su.senders; ++i) {
    hosts.push_back(std::make_unique<host::Host>(
        topo, (i % 2 == 0 ? "tx" : "pad") + std::to_string(i / 2)));
    if (i % 2 == 0) senders.push_back(hosts.back().get());
    if (i == 1) receiver = hosts.back().get();
  }

  // The congestion point: K x 10G offered into the single 1G trunk cable.
  topo.trunk_up(0).set_queue_capacity(su.queue_capacity);
  topo.trunk_up(0).set_ecn_threshold(su.ecn_threshold);

  rd::RdConfig cfg;
  cfg.cc_mode = mode;
  cfg.cc = su.cc;
  cfg.max_retries = 60;  // congestive loss is bursty; never give up here

  constexpr u16 kPort = 100;
  host::UdpSocket* rx_sock = *receiver->udp().open(kPort);
  rd::ReliableDatagram rx_rd(receiver->ctx(), *rx_sock, cfg);

  std::vector<std::unique_ptr<rd::ReliableDatagram>> tx_rd;
  for (host::Host* h : senders) {
    host::UdpSocket* s = *h->udp().open(kPort);
    tx_rd.push_back(std::make_unique<rd::ReliableDatagram>(h->ctx(), *s, cfg));
  }

  const rd::Endpoint dst{receiver->addr(), kPort};
  const u64 flow = rd::ReliableDatagram::flow_key(dst);

  if (obs.sample) {
    auto& s = reg.sampler();
    // Fleet counters with derived rates: loss, marking, recovery, goodput.
    s.add_counter("simnet.link.queue_drops");
    s.add_counter("cc.marks");
    s.add_counter("rd.retries");
    s.add_counter("rd.data_rx");
    // Simulator self-metric: events executed per virtual second.
    sim::Simulation* sim = &topo.sim();
    s.add_probe("sim.events",
                [sim] { return static_cast<double>(sim->events_executed()); },
                /*rate=*/true);
    // Per-sender paced rate: the convergence trajectory EXPERIMENTS.md
    // plots. Only meaningful when a controller exists.
    if (mode != cc::CcMode::kOff)
      for (std::size_t i = 0; i < tx_rd.size(); ++i)
        s.add_probe("cc.rate.tx" + std::to_string(i),
                    [c = tx_rd[i]->congestion(), flow] {
                      return c->rate_bps(flow);
                    });
  }

  if (obs.watch) {
    auto& wd = reg.watchdog();
    for (std::size_t i = 0; i < tx_rd.size(); ++i) {
      rd::ReliableDatagram* p = tx_rd[i].get();
      const std::string name = "tx" + std::to_string(i);
      wd.watch_flow(
          name, [p] { return static_cast<double>(p->unacked()); },
          [p] { return static_cast<double>(p->stats().acks_rx.value()); });
      wd.watch_retx_storm(
          name,
          [p] { return static_cast<double>(p->stats().retransmits.value()); },
          [p] { return static_cast<double>(p->stats().acks_rx.value()); });
      // Timely legitimately rides the 50 Mbps floor in this round-bursty
      // workload while still delivering (the clamp is doing its job), so
      // "at the floor" is not a pathology here. Watching *below* half the
      // floor catches what actually is one: a controller whose clamp broke
      // and paced a flow toward zero.
      if (mode != cc::CcMode::kOff)
        wd.watch_rate_floor(name,
                            [c = p->congestion(), flow] {
                              return c->rate_bps(flow);
                            },
                            cc::kMinRateBps * 0.5);
    }
    host::Host* rx = receiver;
    wd.watch_ledger("rx",
                    [rx] { return static_cast<double>(rx->ledger().total()); });
  }

  if (obs.inject_stall) {
    // Fault demonstration for --strict-health: black-hole sender 0's uplink
    // mid-run. tx0 keeps RTO-retrying into the void; the stalled-flow rule
    // must trip (and the run cannot deliver everything).
    topo.sim().at(5 * kMillisecond, [&topo] {
      topo.host_uplink(0).set_faults(
          sim::Faults::bernoulli(1.0).isolated(0x57A11));
    });
  }

  const std::size_t offered =
      su.senders * su.rounds * su.burst * su.msg_bytes;
  std::size_t delivered = 0;
  std::map<u32, std::size_t> per_sender;
  IncastResult r;
  bool snapped = false;
  rx_rd.on_datagram([&](rd::Endpoint from, Bytes d, bool) {
    delivered += d.size();
    per_sender[from.ip] += d.size();
    // Fairness snapshot at 75% delivered: event-driven (no wall clock, no
    // sampling timer), so it is deterministic. Taken late enough that the
    // round-1 transient (whoever lost the first bursts is head-of-line
    // blocked behind a retransmit) has washed out, but while the trunk is
    // still saturated.
    if (!snapped && delivered * 4 >= offered * 3) {
      snapped = true;
      r.jfi = jain_index(per_sender);
    }
    if (delivered == offered) r.finish = topo.sim().now();
  });

  const Bytes payload = make_pattern(su.msg_bytes, 0x13);
  for (std::size_t round = 0; round < su.rounds; ++round) {
    topo.sim().at(static_cast<TimeNs>(round) * su.round_interval,
                  [&tx_rd, &payload, &su, dst] {
                    for (std::size_t m = 0; m < su.burst; ++m)
                      for (auto& rd_tx : tx_rd)
                        (void)rd_tx->send_to(dst, ConstByteSpan{payload});
                  });
  }

  topo.sim().run();

  r.all_delivered = delivered == offered;
  r.drops = topo.trunk_up(0).stats().queue_drops.value();
  r.marks = topo.trunk_up(0).stats().frames_marked.value();
  r.cnps = rx_rd.stats().cnps_tx.value();
  for (auto& rd_tx : tx_rd) r.retransmits += rd_tx->stats().retransmits.value();
  r.events = topo.sim().events_executed();
  r.metrics = topo.sim().telemetry().to_json();
  if (obs.sample) r.timeseries = reg.sampler().run_json();
  if (obs.watch) {
    r.checks = reg.watchdog().checks();
    r.trips = reg.watchdog().trips();
    r.flight = telemetry::flight_recorder_json(
        reg,
        reg.watchdog().tripped() ? "watchdog trip" : "fig13 health snapshot");
  }
  return r;
}

void print_row(TablePrinter& t, const char* label, const IncastResult& r) {
  t.add_row({label, std::to_string(r.drops), std::to_string(r.marks),
             std::to_string(r.cnps), std::to_string(r.retransmits),
             TablePrinter::fmt(r.jfi, 3),
             r.all_delivered
                 ? TablePrinter::fmt(static_cast<double>(r.finish) / 1e6, 2)
                 : "n/a"});
}

void print_trips(const IncastResult& r, const char* tag) {
  for (const auto& trip : r.trips)
    std::fprintf(stderr,
                 "watchdog trip [%s] @%.3f ms: %s on %s (value %.0f)\n", tag,
                 static_cast<double>(trip.t) / 1e6,
                 telemetry::watchdog_rule_name(trip.rule), trip.target.c_str(),
                 trip.value);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 13 — 8:1 incast at the trunk, cc off/dcqcn/timely",
                "beyond the paper: congestive (not random) loss, tamed by "
                "the ECN + DCQCN/Timely subsystem");

  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  Setup su;
  // The workload is round-bursty (2 ms between synchronized bursts), so
  // DCQCN's datacenter-default clocks are rescaled to the round cadence:
  // recovery slower than the round gap (or rates snap back to line between
  // rounds and every round re-bursts the queue) and alpha decay slow
  // enough to carry congestion memory across one round.
  su.cc.dcqcn_rate_timer = 5 * kMillisecond;
  su.cc.dcqcn_alpha_timer = 500 * kMicrosecond;

  Obs obs;
  obs.sample = !args.timeseries_json.empty();
  obs.watch = args.strict_health || args.inject_stall;

  const std::string flight_path =
      args.flight_json.empty() ? "fig13_flight.json" : args.flight_json;

  if (args.inject_stall) {
    // Fault-demonstration mode (the --strict-health true-positive): one
    // dcqcn run with tx0's uplink black-holed at t=5ms. The watchdog must
    // trip, the flight recorder must validate, and the exit is nonzero.
    std::printf("fault injection: tx0's uplink black-holed at t=5 ms — "
                "expecting a stalled-flow watchdog trip\n\n");
    obs.inject_stall = true;
    const IncastResult r = run_incast(cc::CcMode::kDcqcn, su, obs);
    print_trips(r, "dcqcn+stall");
    bench::dump_flight(r.flight, flight_path);
    if (r.trips.empty()) {
      std::fprintf(stderr,
                   "FAIL: injected stall did not trip the watchdog "
                   "(%llu checks ran)\n",
                   static_cast<unsigned long long>(r.checks));
      return 1;
    }
    if (r.all_delivered) {
      std::fprintf(stderr,
                   "FAIL: black-holed sender still delivered everything\n");
      return 1;
    }
    std::printf("\ninjected stall tripped %zu watchdog target(s) after %llu "
                "checks — exiting nonzero as --strict-health demands\n",
                r.trips.size(), static_cast<unsigned long long>(r.checks));
    return 3;
  }

  // Smoke keeps the full traffic shape — the drop/fairness gates measure a
  // converged controller, and convergence needs the full 30 rounds — but
  // runs each mode single-pass (no determinism re-runs, no ablations),
  // about a third of the full bench's work.
  struct ModeRun {
    cc::CcMode mode;
    IncastResult a;
  };
  std::vector<ModeRun> runs;
  bool deterministic = true;
  for (cc::CcMode mode :
       {cc::CcMode::kOff, cc::CcMode::kDcqcn, cc::CcMode::kTimely}) {
    ModeRun mr{mode, run_incast(mode, su, obs)};
    if (!args.smoke) {
      // Determinism gate: byte-identical registry — and, when sampling,
      // byte-identical time-series fragment — on an identical re-run.
      const IncastResult b = run_incast(mode, su, obs);
      if (b.metrics != mr.a.metrics || b.events != mr.a.events ||
          b.timeseries != mr.a.timeseries) {
        std::fprintf(stderr, "FAIL: cc_mode=%s run is not deterministic\n",
                     cc::cc_mode_name(mode));
        deterministic = false;
      }
    }
    runs.push_back(std::move(mr));
  }

  std::printf("%zu senders x %zu rounds x %zu msgs x %zu B through a "
              "%zu-frame trunk queue (CE mark at %zu)\n\n",
              su.senders, su.rounds, su.burst, su.msg_bytes,
              su.queue_capacity, su.ecn_threshold);
  TablePrinter t({"cc_mode", "trunk drops", "CE marks", "CNPs", "retries",
                  "JFI@75%", "finish ms"});
  for (const auto& mr : runs) print_row(t, cc::cc_mode_name(mr.mode), mr.a);
  t.print();

  const IncastResult& off = runs[0].a;
  const IncastResult& dcqcn = runs[1].a;
  const IncastResult& timely = runs[2].a;

  if (!args.metrics_json.empty()) {
    bench::write_text_file(args.metrics_json, dcqcn.metrics, "dcqcn metrics");
    std::printf("\ndcqcn metrics written to %s\n", args.metrics_json.c_str());
  }

  if (obs.sample)
    bench::dump_timeseries(
        telemetry::timeseries_document({{"off", off.timeseries},
                                        {"dcqcn", dcqcn.timeseries},
                                        {"timely", timely.timeseries}}),
        args.timeseries_json);

  // Health bookkeeping across every run this process executed (ablation
  // points fold in below); any trip fails the bench under --strict-health.
  u64 health_checks = 0;
  std::size_t health_trips = 0;
  std::string tripped_flight;
  auto note_health = [&](const IncastResult& r, const char* tag) {
    health_checks += r.checks;
    health_trips += r.trips.size();
    if (!r.trips.empty()) {
      print_trips(r, tag);
      if (tripped_flight.empty()) tripped_flight = r.flight;
    }
  };
  for (const auto& mr : runs) note_health(mr.a, cc::cc_mode_name(mr.mode));

  if (args.ablate) {
    std::vector<std::string> dumped;
    std::printf("\nablation: ECN mark threshold (dcqcn)\n");
    TablePrinter ta({"threshold", "trunk drops", "CE marks", "CNPs",
                     "retries", "JFI@75%", "finish ms"});
    for (std::size_t thresh : {8ul, 16ul, 32ul}) {
      Setup s2 = su;
      s2.ecn_threshold = thresh;
      Obs o2 = obs;
      o2.sample = false;  // per-point registries, not per-point trajectories
      const IncastResult r = run_incast(cc::CcMode::kDcqcn, s2, o2);
      print_row(ta, std::to_string(thresh).c_str(), r);
      note_health(r, ("ecn" + std::to_string(thresh)).c_str());
      if (!args.metrics_json.empty()) {
        const std::string p = bench::suffixed_path(
            args.metrics_json, "ablate.ecn" + std::to_string(thresh));
        bench::write_text_file(p, r.metrics, "ablation metrics");
        dumped.push_back(p);
      }
    }
    ta.print();

    std::printf("\nablation: Timely beta (MD strength)\n");
    TablePrinter tb({"beta", "trunk drops", "CE marks", "CNPs", "retries",
                     "JFI@75%", "finish ms"});
    for (double beta : {0.2, 0.5, 0.8}) {
      Setup s2 = su;
      s2.cc.timely_beta = beta;
      Obs o2 = obs;
      o2.sample = false;
      const IncastResult r = run_incast(cc::CcMode::kTimely, s2, o2);
      const std::string tag = "beta" + TablePrinter::fmt(beta, 1);
      print_row(tb, TablePrinter::fmt(beta, 1).c_str(), r);
      note_health(r, tag.c_str());
      if (!args.metrics_json.empty()) {
        const std::string p =
            bench::suffixed_path(args.metrics_json, "ablate." + tag);
        bench::write_text_file(p, r.metrics, "ablation metrics");
        dumped.push_back(p);
      }
    }
    tb.print();
    for (const std::string& p : dumped)
      std::printf("ablation metrics written to %s\n", p.c_str());
  }

  // ---- gates ----
  int rc = 0;
  for (const auto& mr : runs)
    if (!mr.a.all_delivered) {
      std::fprintf(stderr, "FAIL: cc_mode=%s lost data\n",
                   cc::cc_mode_name(mr.mode));
      rc = 1;
    }
  if (!deterministic) rc = 1;
  if (off.drops == 0) {
    std::fprintf(stderr, "FAIL: no congestive drops with cc off — the "
                         "incast is not incasting\n");
    rc = 1;
  }
  for (const auto* r : {&dcqcn, &timely}) {
    const char* name = r == &dcqcn ? "dcqcn" : "timely";
    if (r->drops * 5 > off.drops) {
      std::fprintf(stderr, "FAIL: %s drops %llu not >=5x below off (%llu)\n",
                   name, static_cast<unsigned long long>(r->drops),
                   static_cast<unsigned long long>(off.drops));
      rc = 1;
    }
    if (r->jfi < 0.9) {
      std::fprintf(stderr, "FAIL: %s JFI %.3f < 0.9\n", name, r->jfi);
      rc = 1;
    }
  }

  if (args.strict_health) {
    if (health_trips > 0) {
      std::fprintf(stderr, "FAIL: --strict-health saw %zu watchdog trip(s) "
                           "across %llu checks\n",
                   health_trips,
                   static_cast<unsigned long long>(health_checks));
      rc = 1;
    } else {
      std::printf("\nhealth: watchdog clean — %llu checks, 0 trips\n",
                  static_cast<unsigned long long>(health_checks));
    }
    // Trip or gate failure: leave the post-mortem on disk.
    if (rc != 0)
      bench::dump_flight(
          !tripped_flight.empty() ? tripped_flight : dcqcn.flight,
          flight_path);
  }

  std::printf("\n%s\n", rc == 0 ? "all gates PASSED" : "GATES FAILED");
  return rc;
}
