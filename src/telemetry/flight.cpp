#include "telemetry/flight.hpp"

#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::telemetry {

std::string flight_recorder_json(const Registry& reg, std::string_view reason) {
  std::string out = "{\n  \"schema\": \"";
  out += kFlightSchema;
  out += "\",\n  \"reason\": \"";
  append_escaped(out, reason);
  out += "\",\n  \"trips\": ";
  out += reg.watchdog().trips_json();
  if (reg.sampler().enabled()) {
    out += ",\n  \"series\": ";
    out += reg.sampler().run_json();
  }
  out += ",\n  \"metrics\": ";
  out += reg.to_json();
  out += "}\n";
  return out;
}

// Schema validation: the shared reader walks every object and array, and
// each check is made as its value goes by.
Status validate_flight_recorder_json(std::string_view json) {
  JsonParser p{json};
  auto trip = [&p] {
    bool saw_rule = false;
    const bool ok = p.object([&](const std::string& key) {
      if (key != "rule") return p.skip_value();
      return saw_rule = p.parse_string(nullptr);
    });
    return ok && (saw_rule || p.fail("trip missing rule"));
  };
  double prev_t = -1.0;
  auto trace_event = [&] {
    bool saw_t = false;
    double t = 0.0;
    const bool ok = p.object([&](const std::string& key) {
      if (key != "t") return p.skip_value();
      return saw_t = p.parse_number(&t);
    });
    if (!ok) return false;
    if (!saw_t) return p.fail("trace event missing t");
    if (t < prev_t) return p.fail("trace events not time-ordered");
    prev_t = t;
    return true;
  };
  auto trace = [&] {
    return p.object([&](const std::string& key) {
      if (key != "events") return p.skip_value();
      return p.array(trace_event);
    });
  };
  auto metrics = [&] {
    bool saw_counters = false;
    const bool ok = p.object([&](const std::string& key) {
      if (key == "counters") return saw_counters = p.skip_value();
      if (key == "trace") return trace();
      return p.skip_value();
    });
    return ok && (saw_counters || p.fail("metrics missing counters"));
  };
  bool saw_schema = false, saw_reason = false, saw_trips = false,
       saw_metrics = false;
  const bool ok = p.document([&](const std::string& key) {
    if (key == "schema") return saw_schema = p.parse_schema(kFlightSchema);
    if (key == "reason") {
      saw_reason = true;
      std::string reason;
      return p.parse_string(&reason) &&
             (!reason.empty() || p.fail("empty reason"));
    }
    if (key == "trips") return saw_trips = p.array(trip);
    if (key == "series") return parse_timeseries_run(p);
    if (key == "metrics") return saw_metrics = metrics();
    return p.skip_value();
  });
  return p.status(ok && (saw_schema || p.fail("missing schema")) &&
                      (saw_reason || p.fail("missing reason")) &&
                      (saw_trips || p.fail("missing trips")) &&
                      (saw_metrics || p.fail("missing metrics")),
                  "flight");
}

}  // namespace dgiwarp::telemetry
