// Invariant watchdogs over a running simulation: the "is the fabric
// actually healthy" layer on top of the registry.
//
// End-of-run gates catch wrong totals; they cannot catch a run that limps
// to the right totals through a pathology — a trunk queue that never
// drains, a QP retrying into a black-holed link, DCQCN pinned at its rate
// floor, a tenant leaking memory linearly. The Watchdog evaluates a small
// rule vocabulary on a virtual-time cadence (driven from
// Registry::advance_clock, same one-branch-when-disabled discipline as the
// Sampler):
//
//   stuck_queue   depth > 0 and non-decreasing for N consecutive ticks
//   stalled_flow  outstanding work > 0 with zero progress for N ticks
//   retx_storm    retransmits outpace goodput `ratio`-fold over a window
//   rate_floor    cc rate pinned at/below its floor for N ticks
//   mem_leak      ledger bytes strictly growing for N ticks past a slope
//
// A rule trips at most once (latched). Trips emit a TraceKind::kWatchdogTrip
// instant, bump the `telemetry.watchdog.*` counter family, and are kept for
// the flight recorder (flight.hpp) and the benches' `--strict-health` gate,
// which turns any trip into a nonzero exit. The registry counters
// `telemetry.watchdog.checks` and `.trips` are the one count of checks and
// trips: checks() and trip_count() read them.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dgiwarp::telemetry {

class Counter;
class Registry;

/// Watchdog cadence and rule thresholds.
inline constexpr TimeNs kWatchdogInterval = 1 * kMillisecond;  // virtual time
inline constexpr u32 kStuckQueueTicks = 16;  // consecutive non-draining ticks
// Stalled flow: must exceed 2x RdConfig::max_rto (50ms) at the 1ms cadence,
// or two back-to-back dropped RTO retransmits at the cap read as a stall.
inline constexpr u32 kStalledFlowTicks = 120;
inline constexpr u32 kRateFloorTicks = 50;   // consecutive pinned ticks
inline constexpr u32 kRetxStormWindow = 16;  // evaluation window in ticks
// A storm's retx delta must exceed kRetxStormRatio x the goodput delta and
// be at least kRetxStormMinRetx.
inline constexpr double kRetxStormRatio = 4.0;
inline constexpr double kRetxStormMinRetx = 64.0;
inline constexpr u32 kMemLeakTicks = 100;  // consecutive growing ticks
inline constexpr double kMemLeakMinBytes = 256.0 * 1024.0;  // and this much
inline constexpr std::size_t kMaxWatchdogTrips = 64;  // counters stay exact

enum class WatchdogRule : u8 {
  kStuckQueue = 0,
  kStalledFlow,
  kRetxStorm,
  kRateFloor,
  kMemLeak,
};
inline constexpr u8 kWatchdogRuleCount = 5;

const char* watchdog_rule_name(WatchdogRule r);

struct WatchdogTrip {
  TimeNs t = 0;
  WatchdogRule rule = WatchdogRule::kStuckQueue;
  std::string target;
  double value = 0.0;  // rule-specific: depth / outstanding / retx / bps / bytes
};

/// Disabled by default; owned by Registry. enable() clears rules and trips,
/// so a watchdog is configured enable-then-watch before the run it guards,
/// and creates the `telemetry.watchdog.checks` and `.trips` counters, so a
/// run without a watchdog has no `telemetry.watchdog.*` key.
class Watchdog {
 public:
  void enable();
  bool enabled() const { return enabled_; }

  void watch_queue(const std::string& target, std::function<double()> depth);
  void watch_flow(const std::string& target,
                  std::function<double()> outstanding,
                  std::function<double()> progress);
  void watch_retx_storm(const std::string& target,
                        std::function<double()> retx,
                        std::function<double()> goodput);
  void watch_rate_floor(const std::string& target,
                        std::function<double()> rate_bps, double floor_bps);
  void watch_ledger(const std::string& target, std::function<double()> bytes);

  /// Clock hook (Registry::advance_clock). Evaluates every interval
  /// boundary in (last, t] so consecutive-tick counts advance through idle
  /// deadline jumps too — a flow that sits silent across a 50ms RTO gap
  /// still accumulates stall ticks.
  void on_advance(TimeNs t) {
    while (next_due_ <= t) {
      check_at(next_due_);
      next_due_ += kWatchdogInterval;
    }
  }

  bool tripped() const { return !trips_.empty(); }
  const std::vector<WatchdogTrip>& trips() const { return trips_; }
  /// The registry's `telemetry.watchdog.trips` and `.checks` counters (0
  /// before enable()).
  u64 trip_count() const;
  u64 checks() const;

  /// JSON array of trips (deterministic), embedded by the flight recorder.
  std::string trips_json() const;

 private:
  friend class Registry;
  void bind(Registry* reg) { reg_ = reg; }

  struct Rule {
    WatchdogRule kind = WatchdogRule::kStuckQueue;
    std::string target;
    std::function<double()> f1, f2;
    double threshold = 0.0;  // rate_floor: floor_bps
    // Evaluation state.
    u32 run = 0;             // consecutive qualifying ticks
    double prev = 0.0;
    bool have_prev = false;
    double base1 = 0.0, base2 = 0.0;  // storm window baselines / leak base
    u32 window_pos = 0;
    bool latched = false;
  };

  void check_at(TimeNs t);
  void check_rule(Rule& r, TimeNs t);
  void trip(Rule& r, TimeNs t, double value);

  bool enabled_ = false;
  Registry* reg_ = nullptr;
  TimeNs next_due_ = 0;
  Counter* check_counter_ = nullptr;  // fetched once, in enable()
  Counter* trip_counter_ = nullptr;
  std::vector<Rule> rules_;
  std::vector<WatchdogTrip> trips_;
};

}  // namespace dgiwarp::telemetry
