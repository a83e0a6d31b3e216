// The `sip_fleet` workload: the fig12 shape in one pass.
//
// 1,000 hosts on 8 leaves joined by a 2-cable spine LAG; 500 UD SIP
// tenants (one server host, one client host each). Every client dials 20
// concurrent calls, at a seeded pace around SipConfig::setup_interval and
// from a seeded start offset, waits for all of them to be established, then
// tears them down.
//
// Call set-up latency (dial -> established) is read from outside: the clock
// advances in kQuantum steps and each tenant's established() count is read
// between steps. A tenant's calls are dialled in order and answered by one
// server, so its k-th establishment is its k-th dial; the latency is
// therefore exact up to the quantum.
#include <map>
#include <memory>
#include <string>

#include "apps/sip/agents.hpp"
#include "common/rng.hpp"
#include "isock/isock.hpp"
#include "simnet/topology.hpp"
#include "verbs/node.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace dgiwarp;

constexpr std::size_t kTenants = 500;
constexpr std::size_t kCalls = 20;
constexpr TimeNs kQuantum = kMicrosecond;
constexpr TimeNs kDeadline = 60 * kSecond;
constexpr const char* kLeakyCategory = "iwarp.mr";

struct Tenant {
  std::unique_ptr<verbs::Node> server_node;
  std::unique_ptr<verbs::Node> client_node;
  std::unique_ptr<isock::ISockStack> server_io;
  std::unique_ptr<isock::ISockStack> client_io;
  std::unique_ptr<sip::SipServer> server;
  std::unique_ptr<sip::SipClient> client;
  TimeNs dial_at = 0;
  TimeNs interval = 0;  // this client's gap between successive dials
  std::map<std::string, i64> server_cats_idle;  // ledger before any call
  std::size_t seen_up = 0;  // establishments already stamped
  std::size_t dialled = 0;
};

}  // namespace

void run_sip_fleet(u64 seed, Output& out, Phases& ph, Tracer* tr) {
  ph.begin_setup();
  sim::Topology::Params tp;
  tp.leaves = 8;
  tp.trunk_cables = 2;
  tp.seed = seed;
  sim::Topology topo(tp);
  sim::Simulation& sim = topo.sim();
  if (tr) tr->attach(sim);

  // fig11's small-ring pool geometry suits SIP.
  isock::ISockConfig icfg;
  icfg.pool_slots = 2;
  icfg.slot_bytes = 2048;
  const sip::SipConfig scfg;
  Rng rng(seed ^ 0x51F0F1EE7ull);
  std::vector<Tenant> tenants(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    Tenant& t = tenants[i];
    verbs::NodeSpec spec;
    auto node = [&] { return std::make_unique<verbs::Node>(topo, spec); };
    spec.name = "srv" + std::to_string(i);
    t.server_node = timed(tr, &Tracer::node_ns, node);
    spec.name = "cli" + std::to_string(i);
    t.client_node = timed(tr, &Tracer::node_ns, node);
    auto stack = [&](verbs::Node& n) {
      return timed(tr, &Tracer::isock_ns, [&] {
        return std::make_unique<isock::ISockStack>(n.device(), icfg);
      });
    };
    t.server_io = stack(*t.server_node);
    t.client_io = stack(*t.client_node);
    // Each client dials at its own seeded rate, so tenants do not move in
    // lockstep and the latency distribution has no seed-independent steps.
    sip::SipConfig ccfg = scfg;
    t.interval = ccfg.setup_interval =
        scfg.setup_interval * 3 / 4 +
        static_cast<TimeNs>(rng.below(scfg.setup_interval / 2));
    const Status st = timed(tr, &Tracer::sip_ns, [&] {
      t.server = std::make_unique<sip::SipServer>(*t.server_io,
                                                  sip::Transport::kUd, scfg);
      t.client = std::make_unique<sip::SipClient>(
          *t.client_io, sip::Transport::kUd,
          t.server_node->host().endpoint(scfg.server_port), ccfg);
      return t.server->start();
    });
    if (!st.ok())
      out.error("tenant " + std::to_string(i) + ": SIP server did not start");
  }

  ph.begin_run();
  // The settle gap the SIP benches leave before dialling.
  sim.run_until(sim.now() + 2 * kMillisecond);
  const TimeNs dial0 = sim.now();
  for (Tenant& t : tenants) {
    t.server_cats_idle = t.server_node->host().ledger().categories();
    t.dial_at = dial0 + static_cast<TimeNs>(rng.below(
                            static_cast<u64>(scfg.setup_interval)));
    sim.at(t.dial_at, [&t] { t.dialled = t.client->start_calls(kCalls); });
  }

  // Establish, stamping each call at the end of the quantum it came up in.
  std::vector<double> lat_us;
  lat_us.reserve(kTenants * kCalls);
  std::vector<Tenant*> waiting;
  for (Tenant& t : tenants) waiting.push_back(&t);
  while (!waiting.empty() && sim.now() < dial0 + kDeadline && !sim.idle()) {
    sim.run_until(sim.now() + kQuantum);
    const TimeNs now = sim.now();
    std::erase_if(waiting, [&](Tenant* t) {
      for (const std::size_t up = t->client->established(); t->seen_up < up;
           ++t->seen_up)
        lat_us.push_back(to_us(now - t->dial_at -
                               static_cast<TimeNs>(t->seen_up) * t->interval));
      return t->seen_up >= kCalls;
    });
  }
  double peak_bytes_per_call = 0.0;
  for (Tenant& t : tenants) {
    peak_bytes_per_call +=
        static_cast<double>(t.server_node->host().ledger().total());
    for (const auto& [cat, bytes] : t.server_cats_idle)
      peak_bytes_per_call -= static_cast<double>(bytes);
  }
  peak_bytes_per_call /= static_cast<double>(kTenants * kCalls);

  // Tear down, and wait for every BYE's 200.
  for (Tenant& t : tenants) t.client->start_teardown();
  for (Tenant& t : tenants) waiting.push_back(&t);
  const TimeNs down0 = sim.now();
  while (!waiting.empty() && sim.now() < down0 + kDeadline && !sim.idle()) {
    sim.run_until(sim.now() + kQuantum);
    std::erase_if(waiting,
                  [](Tenant* t) { return t->client->terminated() >= kCalls; });
  }
  const TimeNs t_end = sim.now();
  ph.end();

  // Output checks: every call established and terminated, every server
  // back to its pre-call memory with no call state left.
  u64 requests = 0;
  double mr_leak = 0.0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    Tenant& t = tenants[i];
    const std::size_t done = std::min(t.seen_up, t.client->terminated());
    out.failed += kCalls - std::min(done, kCalls);
    const std::string who = "tenant " + std::to_string(i);
    if (t.dialled != kCalls)
      out.error(who + ": dialled " + std::to_string(t.dialled) + " calls");
    if (t.server->active_calls() != 0)
      out.error(who + ": server still holds " +
                std::to_string(t.server->active_calls()) + " calls");
    // Every ledger category returns to its pre-call value except iwarp.mr:
    // ISockStack::close() never deregisters a socket's pool region, so each
    // closed per-call socket leaves its registration charged. That leak is
    // reported (ledger.server_mr_leak_bytes_per_call) rather than failed,
    // until the stack releases registrations on close.
    const auto& cats = t.server_node->host().ledger().categories();
    for (const auto& [cat, bytes] : cats) {
      const i64 before = t.server_cats_idle[cat];
      if (cat == kLeakyCategory) {
        mr_leak += static_cast<double>(bytes - before);
      } else if (bytes != before) {
        out.error(who + ": server ledger category " + cat + " holds " +
                  std::to_string(bytes) + " B after teardown, " +
                  std::to_string(before) + " B before the calls");
      }
    }
    requests += t.server->requests_handled();
    t.client->finish_teardown();
  }
  if (out.failed > 0)
    out.error(std::to_string(out.failed) + " calls not established or "
              "not terminated");
  out.ops += kTenants * kCalls;

  auto& reg = sim.telemetry();
  out.det["simnet.events"] += static_cast<double>(sim.events_executed());
  out.add_counters(reg, layer_counters());
  out.registry_fnv = fnv1a(out.registry_fnv, reg.to_json());
  out.det["sip.requests_handled"] = static_cast<double>(requests);
  out.det["ledger.server_bytes_per_call"] = peak_bytes_per_call;
  out.det["ledger.server_mr_leak_bytes_per_call"] =
      mr_leak / static_cast<double>(kTenants * kCalls);
  out.det["goodput_MBps"] =
      rate_MBps(static_cast<std::size_t>(reg.counter_value("isock.bytes.rx")),
                t_end - dial0);
  out.det["op_latency_p50_us"] = percentile(lat_us, 50);
  out.det["op_latency_p99_us"] = percentile(lat_us, 99);
  out.det["op_latency_samples"] = static_cast<double>(lat_us.size());
  if (tr) tr->collect(sim);
}

}  // namespace pb
