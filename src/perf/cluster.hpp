// ClusterHarness: drive many application workloads concurrently inside ONE
// Simulation over a multi-switch Topology.
//
// The two-endpoint Rig (perf/harness.hpp) answers "how fast is one
// transfer"; this harness answers the scale questions (bench/fig12_scale):
// K SIP server/client pairs spread round-robin across the topology's leaf
// switches, all running at once, with per-tenant memory accounted through
// each host's MemLedger. Every pair is one "tenant": its own pair of hosts,
// devices and socket stacks, so ledger totals isolate cleanly.
//
// Determinism: one seeded Topology, one event queue, no wall-clock input —
// two runs with the same ClusterConfig produce identical metrics JSON.
// The establish/teardown waits advance the clock in fixed 1 ms chunks
// instead of testing a predicate after every event, which keeps the wait
// O(events) even with thousands of in-flight calls.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/sip/agents.hpp"
#include "simnet/topology.hpp"
#include "telemetry/trace_export.hpp"
#include "verbs/node.hpp"

namespace dgiwarp::perf {

struct ClusterConfig {
  sim::Topology::Params topo;      // leaves, trunk LAG width, seed...
  std::size_t pairs = 4;           // tenants (server+client each)
  std::size_t calls_per_pair = 8;  // concurrent SIP calls per tenant
  sip::Transport transport = sip::Transport::kUd;
  /// --trace-json support (parity with perf::Options::trace): when set, the
  /// harness enables spans + profiler + trace ring before any traffic and
  /// folds the run into this capture at the end of run_sip().
  /// Enabling changes which histograms accumulate, so keep it identical
  /// across runs being compared for determinism.
  telemetry::TraceCapture* trace = nullptr;
  /// Fabric-health observability (--strict-health / --timeseries-json).
  /// `watch` arms the Watchdog before any traffic: stuck-queue rules on
  /// every trunk LAG member (Topology::attach_health) plus a per-tenant
  /// mem-leak rule on each server's MemLedger, and enables the trace ring
  /// (kFlightTraceEvents, unless `trace` armed it already) so a
  /// flight-recorder dump has events to show. `sample` enables the
  /// Sampler at a 1 ms cadence with trunk queue-depth probes, fleet
  /// counters, and per-tenant memory series for the first four tenants
  /// (bounded so a 1000-host fleet does not swamp the export). Both change
  /// which registry keys exist, so keep them identical across runs compared
  /// for determinism.
  struct Health {
    bool watch = false;
    bool sample = false;
  };
  Health health;
};

/// One tenant's ledger snapshot, taken at peak (all calls up).
struct TenantStats {
  std::string name;
  i64 server_total = 0;  // whole-stack server memory (MemLedger)
  i64 server_app = 0;    // "sip.call" application bookkeeping only
  i64 client_total = 0;
  std::size_t established = 0;
  std::size_t terminated = 0;
};

struct ClusterReport {
  std::size_t nodes = 0;         // hosts stood up (2 * pairs)
  std::size_t calls_requested = 0;
  std::size_t established = 0;   // across all tenants, at peak
  std::size_t terminated = 0;
  u64 events = 0;                // simulation events executed
  TimeNs setup_time = 0;         // first INVITE scheduled -> all up
  TimeNs virtual_time = 0;       // sim.now() at the end of the run
  i64 server_mem_total = 0;      // sum of tenant server ledgers at peak
  std::vector<TenantStats> tenants;
  /// Health (populated when ClusterConfig::health.watch is set).
  u64 watchdog_checks = 0;
  std::size_t watchdog_trips = 0;
  /// Flight-recorder JSON snapshot taken at end of run (empty when the
  /// watchdog is off); callers write it to disk on trip / gate failure.
  std::string flight;
};

class ClusterHarness {
 public:
  explicit ClusterHarness(ClusterConfig cfg);
  ~ClusterHarness();

  /// Establish pairs*calls_per_pair SIP calls concurrently, snapshot
  /// per-tenant memory at peak, then tear everything down.
  ClusterReport run_sip();

  sim::Topology& topology() { return topo_; }
  /// Deterministic metrics snapshot (the double-run identity gate).
  std::string metrics_json() const {
    return topo_.sim().telemetry().to_json();
  }

 private:
  struct Tenant;

  void build_tenants();
  /// Fold the finished run into cfg_.trace (no-op when tracing is off).
  void absorb_trace();
  /// Populate the report's watchdog fields + flight snapshot (no-op when
  /// health.watch is off).
  void fill_health(ClusterReport& rep) const;
  /// Advance the clock in fixed chunks until done() or the deadline.
  bool chunked_wait(const std::function<bool()>& done, TimeNs deadline);

  ClusterConfig cfg_;
  sim::Topology topo_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace dgiwarp::perf
