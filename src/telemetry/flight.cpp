#include "telemetry/flight.hpp"

#include <vector>

#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::telemetry {

std::string flight_recorder_json(const Registry& reg, std::string_view reason,
                                 const FlightOptions& opts) {
  std::string out;
  out.reserve(8192);
  out += "{\n  \"schema\": \"";
  out += kFlightSchema;
  out += "\",\n  \"reason\": \"";
  append_escaped(out, reason);
  out += "\",\n  \"virtual_time_ns\": ";
  append_u64(out, static_cast<u64>(reg.now()));

  const Watchdog& wd = reg.watchdog();
  out += ",\n  \"watchdog\": {\"enabled\": ";
  out += wd.enabled() ? "true" : "false";
  out += ", \"checks\": ";
  append_u64(out, wd.checks());
  out += ", \"trip_count\": ";
  append_u64(out, wd.trip_count());
  out += ", \"trips\": ";
  out += wd.trips_json();
  out += "}";

  // Newest `max_trace_events` trace-ring events.
  const std::vector<TraceEvent> events = reg.trace().snapshot();
  const std::size_t skip =
      events.size() > opts.max_trace_events
          ? events.size() - opts.max_trace_events
          : 0;
  out += ",\n  \"trace\": {\"recorded\": ";
  append_u64(out, reg.trace().recorded());
  out += ", \"tail\": [";
  bool first = true;
  for (std::size_t i = skip; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"t\": ";
    append_u64(out, static_cast<u64>(e.t));
    out += ", \"kind\": \"";
    out += trace_kind_name(e.kind);
    out += "\", \"a\": ";
    append_u64(out, e.a);
    out += ", \"b\": ";
    append_u64(out, e.b);
    out += '}';
  }
  out += first ? "]}" : "\n  ]}";

  // Tail of every sampled series (empty object when sampling is off).
  out += ",\n  \"series\": {";
  first = true;
  for (const auto& [name, ts] : reg.sampler().series()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": [";
    const std::vector<SeriesPoint> pts = ts.snapshot();
    const std::size_t pskip =
        pts.size() > opts.max_points ? pts.size() - opts.max_points : 0;
    bool pfirst = true;
    for (std::size_t i = pskip; i < pts.size(); ++i) {
      out += pfirst ? "[" : ",[";
      pfirst = false;
      append_u64(out, static_cast<u64>(pts[i].t));
      out += ',';
      append_double(out, pts[i].v);
      out += ']';
    }
    out += ']';
  }
  out += first ? "}" : "\n  }";

  // Registry state: counters and gauges in full (they are small). Values
  // go through the same json_lite writer as Registry::to_json, so they
  // diff cleanly against a --metrics-json dump of the same run.
  out += ",\n  \"counters\": {";
  first = true;
  for (const auto& [name, c] : reg.counters()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": ";
    append_u64(out, c.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : reg.gauges()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": {\"value\": ";
    append_double(out, g.value());
    out += ", \"max\": ";
    append_double(out, g.max());
    out += '}';
  }
  out += first ? "}" : "\n  }";

  out += "\n}\n";
  return out;
}

Status write_flight_recorder(const Registry& reg, std::string_view reason,
                             const std::string& path,
                             const FlightOptions& opts) {
  return write_file(path, flight_recorder_json(reg, reason, opts));
}

// Schema validation: the shared reader walks every object and array, and
// each check is made as its value goes by.
Status validate_flight_recorder_json(std::string_view json) {
  JsonParser p{json};
  // An object whose array member `name` is required and checked per element.
  auto section = [&p](const char* name, const char* missing, auto&& element) {
    bool saw = false;
    const bool ok = p.object([&](const std::string& key) {
      if (key != name) return p.skip_value();
      return saw = p.array(element);
    });
    return ok && (saw || p.fail(missing));
  };
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
    bool saw_t = false, saw_kind = false;
    double t = 0.0;
    const bool ok = p.object([&](const std::string& key) {
      if (key == "t") return saw_t = p.parse_number(&t);
      if (key == "kind") return saw_kind = p.parse_string(nullptr);
      return p.skip_value();
    });
    if (!ok) return false;
    if (!saw_t || !saw_kind) return p.fail("trace event missing t/kind");
    if (t < prev_t) return p.fail("trace tail not time-ordered");
    prev_t = t;
    return true;
  };
  bool saw_schema = false, saw_reason = false, saw_watchdog = false,
       saw_trace = false, saw_counters = false;
  const bool ok = p.document([&](const std::string& key) {
    if (key == "schema") return saw_schema = p.parse_schema(kFlightSchema);
    if (key == "reason") {
      saw_reason = true;
      std::string reason;
      return p.parse_string(&reason) &&
             (!reason.empty() || p.fail("empty reason"));
    }
    if (key == "watchdog")
      return saw_watchdog = section("trips", "watchdog missing trips", trip);
    if (key == "trace")
      return saw_trace = section("tail", "trace missing tail", trace_event);
    if (key == "counters") return saw_counters = p.skip_value();
    return p.skip_value();
  });
  return p.status(ok && (saw_schema || p.fail("missing schema")) &&
                      (saw_reason || p.fail("missing reason")) &&
                      (saw_watchdog || p.fail("missing watchdog")) &&
                      (saw_trace || p.fail("missing trace")) &&
                      (saw_counters || p.fail("missing counters")),
                  "flight");
}

}  // namespace dgiwarp::telemetry
