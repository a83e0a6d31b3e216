#include "telemetry/registry.hpp"

#include "telemetry/json_lite.hpp"

namespace dgiwarp::telemetry {

namespace {

void append_key(std::string& out, const std::string& name) {
  out += '"';
  append_escaped(out, name);
  out += "\":";
}

}  // namespace

Registry::Registry() {
  // Wire every time-stamping member to the mirrored virtual clock before
  // anything can record: sinks enabled prior to Simulation wiring still
  // stamp real timestamps once events execute.
  trace_.set_clock(&now_);
  spans_.set_clock(&now_);
  sampler_.bind(this);
  watchdog_.bind(this);
}

u64 Registry::counter_value(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Histogram* Registry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool Registry::has(const std::string& name) const {
  return counters_.contains(name) || gauges_.contains(name) ||
         histograms_.contains(name);
}

void Registry::merge_from(const Registry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].inc(c.value());
  for (const auto& [name, g] : other.gauges_) {
    Gauge& mine = gauges_[name];
    mine.set(g.max());  // capture the peak...
    mine.set(g.value());  // ...then leave the most recent value current
  }
  for (const auto& [name, h] : other.histograms_) {
    Histogram& mine = histograms_[name];
    for (double x : h.samples().values()) mine.add(x);
  }
  profiler_.merge_from(other.profiler_);
  if (other.now_ > now_) now_ = other.now_;
}

std::string Registry::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"dgiwarp.telemetry.v1\",\n  \"virtual_time_ns\": ";
  append_u64(out, static_cast<u64>(now_));
  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_key(out, name);
    append_u64(out, c.value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_key(out, name);
    out += "{\"value\":";
    append_double(out, g.value());
    out += ",\"max\":";
    append_double(out, g.max());
    out += '}';
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_key(out, name);
    const RunningStat st = h.stat();
    out += "{\"count\":";
    append_u64(out, st.count());
    out += ",\"mean\":";
    append_double(out, st.mean());
    out += ",\"min\":";
    append_double(out, st.min());
    out += ",\"max\":";
    append_double(out, st.max());
    out += ",\"p50\":";
    append_double(out, h.percentile(50.0));
    out += ",\"p90\":";
    append_double(out, h.percentile(90.0));
    out += ",\"p99\":";
    append_double(out, h.percentile(99.0));
    out += '}';
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"trace\": {\"enabled\": ";
  out += trace_.enabled() ? "true" : "false";
  out += ", \"capacity\": ";
  append_u64(out, trace_.capacity());
  out += ", \"recorded\": ";
  append_u64(out, trace_.recorded());
  out += ", \"dropped\": ";
  append_u64(out, trace_.dropped());
  out += ", \"events\": [";
  first = true;
  for (const TraceEvent& e : trace_.snapshot()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"t\":";
    append_u64(out, static_cast<u64>(e.t));
    out += ",\"kind\":\"";
    out += trace_kind_name(e.kind);
    out += "\",\"a\":";
    append_u64(out, e.a);
    out += ",\"b\":";
    append_u64(out, e.b);
    out += '}';
  }
  out += first ? "]}" : "\n  ]}";

  out += ",\n  \"profile\": {\"enabled\": ";
  out += profiler_.enabled() ? "true" : "false";
  out += ", \"total_ns\": ";
  append_u64(out, profiler_.total_ns());
  out += ", \"buckets\": ";
  out += profiler_.to_json();
  out += "}";
  out += "\n}\n";
  return out;
}

}  // namespace dgiwarp::telemetry
