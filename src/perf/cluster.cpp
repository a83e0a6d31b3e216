#include "perf/cluster.hpp"

#include "isock/isock.hpp"
#include "telemetry/flight.hpp"

namespace dgiwarp::perf {

namespace {
constexpr TimeNs kSampleInterval = 1 * kMillisecond;
constexpr std::size_t kSampledTenants = 4;  // tenants with a memory series
// Virtual time each of the establish and teardown waits may take.
constexpr TimeNs kDeadline = 240 * kSecond;
}  // namespace

struct ClusterHarness::Tenant {
  std::unique_ptr<verbs::Node> server_node;
  std::unique_ptr<verbs::Node> client_node;
  std::unique_ptr<isock::ISockStack> server_io;
  std::unique_ptr<isock::ISockStack> client_io;
  std::unique_ptr<sip::SipServer> sip_server;
  std::unique_ptr<sip::SipClient> sip_client;
};

ClusterHarness::ClusterHarness(ClusterConfig cfg)
    : cfg_(cfg), topo_(cfg.topo) {
  auto& reg = topo_.sim().telemetry();
  if (cfg_.trace) {
    reg.spans().enable();
    reg.profiler().enable();
    reg.trace().enable();
  }
  if (cfg_.health.sample) {
    reg.sampler().enable(kSampleInterval);
    // Fleet-wide counters worth a trajectory at scale: loss, recovery
    // effort, goodput.
    reg.sampler().add_counter("simnet.link.drops");
    reg.sampler().add_counter("rd.retries");
    reg.sampler().add_counter("rd.data_rx");
  }
  if (cfg_.health.watch) {
    reg.watchdog().enable();
    // A flight-recorder dump without trace events is a black box. Armed
    // for the recorder alone, the ring holds its newest kFlightTraceEvents,
    // which keeps it cheap at scale; a --trace-json run keeps its own ring.
    if (!reg.trace().enabled())
      reg.trace().enable(telemetry::kFlightTraceEvents);
  }
  topo_.attach_health();  // no-op unless sampler/watchdog armed above
}

ClusterHarness::~ClusterHarness() = default;

void ClusterHarness::absorb_trace() {
  if (!cfg_.trace) return;
  // Name a representative sample of nodes for process metadata; a 1000-host
  // fleet would otherwise emit a thousand process rows for one trace.
  std::vector<std::pair<u32, std::string>> nodes;
  for (std::size_t i = 0; i < tenants_.size() && i < 4; ++i) {
    nodes.emplace_back(tenants_[i]->server_node->host().addr(),
                       tenants_[i]->server_node->name());
    nodes.emplace_back(tenants_[i]->client_node->host().addr(),
                       tenants_[i]->client_node->name());
  }
  cfg_.trace->absorb(topo_.sim().telemetry(), nodes);
}

void ClusterHarness::build_tenants() {
  // fig11's small-ring pool geometry suits SIP.
  isock::ISockConfig scfg;
  scfg.pool_slots = 2;
  scfg.slot_bytes = 2048;

  for (std::size_t i = 0; i < cfg_.pairs; ++i) {
    auto t = std::make_unique<Tenant>();
    verbs::NodeSpec spec;
    spec.name = "srv" + std::to_string(i);
    t->server_node = std::make_unique<verbs::Node>(topo_, spec);
    spec.name = "cli" + std::to_string(i);
    t->client_node = std::make_unique<verbs::Node>(topo_, spec);
    t->server_io =
        std::make_unique<isock::ISockStack>(t->server_node->device(), scfg);
    t->client_io =
        std::make_unique<isock::ISockStack>(t->client_node->device(), scfg);

    // Per-tenant rollups: the registry's flat aggregate cannot tell one
    // leaking tenant from a thousand healthy ones.
    auto& reg = topo_.sim().telemetry();
    verbs::Node* srv = t->server_node.get();
    auto srv_mem = [srv] {
      return static_cast<double>(srv->host().ledger().total());
    };
    if (cfg_.health.watch) reg.watchdog().watch_ledger(srv->name(), srv_mem);
    if (cfg_.health.sample && i < kSampledTenants)
      reg.sampler().add_probe("tenant." + srv->name() + ".mem", srv_mem);

    tenants_.push_back(std::move(t));
  }
}

void ClusterHarness::fill_health(ClusterReport& rep) const {
  const auto& reg = topo_.sim().telemetry();
  const telemetry::Watchdog& wd = reg.watchdog();
  if (!wd.enabled()) return;
  rep.watchdog_checks = wd.checks();
  rep.watchdog_trips = wd.trips().size();
  rep.flight = telemetry::flight_recorder_json(
      reg, wd.tripped() ? "watchdog trip" : "cluster health snapshot");
}

bool ClusterHarness::chunked_wait(const std::function<bool()>& done,
                                  TimeNs deadline) {
  auto& sim = topo_.sim();
  // Fixed 1 ms quanta: at thousands of concurrent calls, evaluating the
  // completion predicate after every event (run_while_pending) dominates
  // the run; between chunks it is evaluated once.
  while (!done()) {
    if (sim.now() >= deadline) return false;
    if (sim.idle()) return done();
    sim.run_until(std::min<TimeNs>(sim.now() + kMillisecond, deadline));
  }
  return true;
}

ClusterReport ClusterHarness::run_sip() {
  build_tenants();
  auto& sim = topo_.sim();

  for (auto& t : tenants_) {
    t->sip_server =
        std::make_unique<sip::SipServer>(*t->server_io, cfg_.transport);
    (void)t->sip_server->start();
  }
  // Same settle gap the two-endpoint SIP benches use before dialling.
  sim.run_until(sim.now() + 2 * kMillisecond);

  const TimeNs dial_start = sim.now();
  for (auto& t : tenants_) {
    t->sip_client = std::make_unique<sip::SipClient>(
        *t->client_io, cfg_.transport,
        t->server_node->host().endpoint(sip::SipConfig::server_port));
    t->sip_client->start_calls(cfg_.calls_per_pair);
  }

  auto all_up = [this] {
    for (const auto& t : tenants_)
      if (t->sip_client->established() < t->sip_client->calls()) return false;
    return true;
  };
  chunked_wait(all_up, dial_start + kDeadline);

  ClusterReport rep;
  rep.nodes = topo_.hosts();
  rep.calls_requested = cfg_.pairs * cfg_.calls_per_pair;
  rep.setup_time = sim.now() - dial_start;
  for (auto& t : tenants_) {
    TenantStats ts;
    ts.name = t->server_node->name();
    ts.established = t->sip_client->established();
    ts.server_total = t->server_node->host().ledger().total();
    ts.server_app = t->server_node->host().ledger().category("sip.call");
    ts.client_total = t->client_node->host().ledger().total();
    rep.established += ts.established;
    rep.server_mem_total += ts.server_total;
    rep.tenants.push_back(std::move(ts));
  }

  for (auto& t : tenants_) t->sip_client->start_teardown();
  auto all_down = [this] {
    for (const auto& t : tenants_)
      if (t->sip_client->terminated() < t->sip_client->calls()) return false;
    return true;
  };
  chunked_wait(all_down, sim.now() + kDeadline);
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    rep.tenants[i].terminated = tenants_[i]->sip_client->terminated();
    rep.terminated += rep.tenants[i].terminated;
    tenants_[i]->sip_client->finish_teardown();
  }

  rep.events = sim.events_executed();
  rep.virtual_time = sim.now();
  fill_health(rep);
  absorb_trace();
  return rep;
}

}  // namespace dgiwarp::perf
