#include "telemetry/health.hpp"

#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::telemetry {

const char* watchdog_rule_name(WatchdogRule r) {
  switch (r) {
    case WatchdogRule::kStuckQueue: return "stuck_queue";
    case WatchdogRule::kStalledFlow: return "stalled_flow";
    case WatchdogRule::kRetxStorm: return "retx_storm";
    case WatchdogRule::kRateFloor: return "rate_floor";
    case WatchdogRule::kMemLeak: return "mem_leak";
  }
  return "?";
}

void Watchdog::enable() {
  enabled_ = true;
  next_due_ = 0;
  checks_ = 0;
  trip_count_ = 0;
  rules_.clear();
  trips_.clear();
  if (reg_) {
    // Materialize the counter family up front so an enabled-but-clean run
    // exports `trips: 0` instead of silently omitting the key.
    reg_->counter("telemetry.watchdog.checks");
    reg_->counter("telemetry.watchdog.trips");
  }
}

void Watchdog::watch_queue(const std::string& target,
                           std::function<double()> depth) {
  Rule r;
  r.kind = WatchdogRule::kStuckQueue;
  r.target = target;
  r.f1 = std::move(depth);
  rules_.push_back(std::move(r));
}

void Watchdog::watch_flow(const std::string& target,
                          std::function<double()> outstanding,
                          std::function<double()> progress) {
  Rule r;
  r.kind = WatchdogRule::kStalledFlow;
  r.target = target;
  r.f1 = std::move(outstanding);
  r.f2 = std::move(progress);
  rules_.push_back(std::move(r));
}

void Watchdog::watch_retx_storm(const std::string& target,
                                std::function<double()> retx,
                                std::function<double()> goodput) {
  Rule r;
  r.kind = WatchdogRule::kRetxStorm;
  r.target = target;
  r.f1 = std::move(retx);
  r.f2 = std::move(goodput);
  rules_.push_back(std::move(r));
}

void Watchdog::watch_rate_floor(const std::string& target,
                                std::function<double()> rate_bps,
                                double floor_bps) {
  Rule r;
  r.kind = WatchdogRule::kRateFloor;
  r.target = target;
  r.f1 = std::move(rate_bps);
  r.threshold = floor_bps;
  rules_.push_back(std::move(r));
}

void Watchdog::watch_ledger(const std::string& target,
                            std::function<double()> bytes) {
  Rule r;
  r.kind = WatchdogRule::kMemLeak;
  r.target = target;
  r.f1 = std::move(bytes);
  rules_.push_back(std::move(r));
}

void Watchdog::check_at(TimeNs t) {
  ++checks_;
  if (reg_) reg_->counter("telemetry.watchdog.checks").inc();
  for (Rule& r : rules_) check_rule(r, t);
}

void Watchdog::check_rule(Rule& r, TimeNs t) {
  if (r.latched) return;
  switch (r.kind) {
    case WatchdogRule::kStuckQueue: {
      const double d = r.f1();
      if (d > 0.0 && r.have_prev && d >= r.prev) {
        ++r.run;
      } else {
        r.run = 0;
      }
      r.prev = d;
      r.have_prev = true;
      if (r.run >= kStuckQueueTicks) trip(r, t, d);
      break;
    }
    case WatchdogRule::kStalledFlow: {
      const double out = r.f1();
      const double prog = r.f2();
      if (out > 0.0 && r.have_prev && prog == r.prev) {
        ++r.run;
      } else {
        r.run = 0;
      }
      r.prev = prog;
      r.have_prev = true;
      if (r.run >= kStalledFlowTicks) trip(r, t, out);
      break;
    }
    case WatchdogRule::kRetxStorm: {
      const double retx = r.f1();
      const double good = r.f2();
      if (!r.have_prev) {
        r.base1 = retx;
        r.base2 = good;
        r.window_pos = 0;
        r.have_prev = true;
        break;
      }
      if (++r.window_pos >= kRetxStormWindow) {
        const double dr = retx - r.base1;
        const double dg = good > r.base2 ? good - r.base2 : 0.0;
        if (dr >= kRetxStormMinRetx && dr > kRetxStormRatio * dg)
          trip(r, t, dr);
        r.base1 = retx;
        r.base2 = good;
        r.window_pos = 0;
      }
      break;
    }
    case WatchdogRule::kRateFloor: {
      const double rate = r.f1();
      if (rate <= r.threshold) {
        ++r.run;
      } else {
        r.run = 0;
      }
      if (r.run >= kRateFloorTicks) trip(r, t, rate);
      break;
    }
    case WatchdogRule::kMemLeak: {
      const double b = r.f1();
      if (r.have_prev && b > r.prev) {
        if (r.run == 0) r.base1 = r.prev;
        ++r.run;
        // Both conditions must hold: sustained growth AND real slope. The
        // run keeps extending until either the growth pauses (reset) or
        // the total crosses the slope threshold (trip).
        if (r.run >= kMemLeakTicks && b - r.base1 >= kMemLeakMinBytes)
          trip(r, t, b - r.base1);
      } else {
        r.run = 0;
      }
      r.prev = b;
      r.have_prev = true;
      break;
    }
  }
}

void Watchdog::trip(Rule& r, TimeNs t, double value) {
  r.latched = true;
  ++trip_count_;
  if (trips_.size() < kMaxWatchdogTrips)
    trips_.push_back(WatchdogTrip{t, r.kind, r.target, value});
  if (reg_) {
    reg_->counter("telemetry.watchdog.trips").inc();
    reg_->counter(std::string("telemetry.watchdog.") +
                  watchdog_rule_name(r.kind))
        .inc();
    reg_->trace().record(TraceKind::kWatchdogTrip, static_cast<u64>(r.kind),
                         value >= 0.0 ? static_cast<u64>(value) : 0);
  }
}

std::string Watchdog::trips_json() const {
  std::string out = "[";
  bool first = true;
  for (const WatchdogTrip& tr : trips_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"t\": ";
    append_u64(out, static_cast<u64>(tr.t));
    out += ", \"rule\": \"";
    out += watchdog_rule_name(tr.rule);
    out += "\", \"target\": \"";
    append_escaped(out, tr.target);
    out += "\", \"value\": ";
    append_double(out, tr.value);
    out += '}';
  }
  out += first ? "]" : "\n  ]";
  return out;
}

}  // namespace dgiwarp::telemetry
