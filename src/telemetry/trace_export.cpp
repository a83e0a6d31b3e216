#include "telemetry/trace_export.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "telemetry/json_lite.hpp"

namespace dgiwarp::telemetry {

namespace {

void append_ts_us(std::string& out, TimeNs t) {
  // Microseconds with nanosecond precision, integer math only: the same
  // virtual time always prints the same bytes.
  const u64 ns = static_cast<u64>(t);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03" PRIu64, ns / 1000,
                ns % 1000);
  out += buf;
}

/// One rendered trace event, kept with its virtual-time key so the final
/// document can be stably sorted into global ts order.
struct Rendered {
  TimeNs ts;
  std::string json;
};

void emit(std::vector<Rendered>& out, TimeNs ts, std::string json) {
  out.push_back(Rendered{ts, std::move(json)});
}

std::string event_json(const char* ph, TimeNs ts, u64 pid, u64 tid,
                       std::string_view name, const char* cat,
                       std::string_view extra) {
  std::string e = "{\"ph\":\"";
  e += ph;
  e += "\",\"ts\":";
  append_ts_us(e, ts);
  e += ",\"pid\":";
  append_u64(e, pid);
  e += ",\"tid\":";
  append_u64(e, tid);
  if (!name.empty()) {
    e += ",\"name\":\"";
    append_escaped(e, name);
    e += '"';
  }
  if (cat) {
    e += ",\"cat\":\"";
    e += cat;
    e += '"';
  }
  if (!extra.empty()) {
    e += ',';
    e += extra;
  }
  e += '}';
  return e;
}

/// Merged per-phase intervals of an ended span, in time order.
struct PhaseSlice {
  SpanPhase phase;
  TimeNs from, to;
};

std::vector<PhaseSlice> phase_slices(const Span& s) {
  std::vector<StageRecord> stages = s.stages;
  std::stable_sort(stages.begin(), stages.end(),
                   [](const StageRecord& a, const StageRecord& b) {
                     return a.t < b.t;
                   });
  std::vector<PhaseSlice> out;
  TimeNs prev = s.start;
  auto add = [&out](SpanPhase p, TimeNs from, TimeNs to) {
    if (to <= from) return;
    if (!out.empty() && out.back().phase == p && out.back().to == from) {
      out.back().to = to;  // merge adjacent same-phase intervals
    } else {
      out.push_back(PhaseSlice{p, from, to});
    }
  };
  for (const StageRecord& r : stages) {
    const TimeNs t = std::clamp(r.t, prev, s.end);
    add(phase_of(r.stage), prev, t);
    prev = t;
  }
  add(SpanPhase::kStackRx, prev, s.end);
  return out;
}

}  // namespace

void TraceCapture::absorb(
    Registry& reg, const std::vector<std::pair<u32, std::string>>& nodes) {
  for (const auto& [addr, name] : nodes) nodes_[addr] = name;

  u64 max_id = id_offset_;
  for (Span s : reg.spans().take_all()) {
    s.id += id_offset_;
    if (s.parent != 0) s.parent += id_offset_;
    s.start += time_offset_;
    if (s.ended) s.end += time_offset_;
    for (StageRecord& r : s.stages) r.t += time_offset_;
    max_id = std::max(max_id, s.id);
    spans_.push_back(std::move(s));
  }
  for (TraceEvent e : reg.trace().snapshot()) {
    e.t += time_offset_;
    events_.push_back(e);
  }
  profiler_.merge_from(reg.profiler());

  id_offset_ = max_id;
  time_offset_ += reg.now() + kRunGapNs;
  ++runs_;
}

std::string TraceCapture::trace_event_json() const {
  std::vector<Rendered> ev;
  ev.reserve(spans_.size() * 8 + events_.size() + nodes_.size() + 1);

  // Process metadata: one pid per simulated node, plus pid 0 for the
  // global trace-ring events.
  std::map<u32, std::string> names = nodes_;
  for (const Span& s : spans_)
    names.try_emplace(s.origin, "node-" + std::to_string(s.origin));
  if (!events_.empty()) names.try_emplace(0, "events");
  for (const auto& [addr, name] : names) {
    std::string extra = "\"args\":{\"name\":\"";
    append_escaped(extra, name);
    extra += "\"}";
    emit(ev, 0, event_json("M", 0, addr, 0, "process_name", nullptr, extra));
  }

  for (const Span& s : spans_) {
    const std::string_view label =
        (s.label && *s.label) ? std::string_view(s.label) : "span";
    if (!s.ended) {
      std::string extra = "\"s\":\"p\",\"args\":{\"span\":";
      append_u64(extra, s.id);
      extra += ",\"bytes\":";
      append_u64(extra, s.bytes);
      extra += "}";
      std::string name = "incomplete: ";
      name += label;
      emit(ev, s.start,
           event_json("i", s.start, s.origin, s.id, name, "span", extra));
      continue;
    }
    {
      std::string extra = "\"args\":{\"span\":";
      append_u64(extra, s.id);
      extra += ",\"parent\":";
      append_u64(extra, s.parent);
      extra += ",\"bytes\":";
      append_u64(extra, s.bytes);
      extra += ",\"completed\":";
      extra += s.completed ? "true" : "false";
      extra += "}";
      emit(ev, s.start,
           event_json("B", s.start, s.origin, s.id, label, "span", extra));
    }
    for (const PhaseSlice& p : phase_slices(s)) {
      emit(ev, p.from,
           event_json("B", p.from, s.origin, s.id, span_phase_name(p.phase),
                      "phase", {}));
      emit(ev, p.to,
           event_json("E", p.to, s.origin, s.id, span_phase_name(p.phase),
                      "phase", {}));
    }
    for (const StageRecord& r : s.stages) {
      if (r.stage != Stage::kRetransmit && r.stage != Stage::kDropped &&
          r.stage != Stage::kGiveUp)
        continue;
      std::string extra = "\"s\":\"t\",\"args\":{\"a\":";
      append_u64(extra, r.a);
      extra += ",\"b\":";
      append_u64(extra, r.b);
      extra += "}";
      const TimeNs t = std::clamp(r.t, s.start, s.end);
      emit(ev, t,
           event_json("i", t, s.origin, s.id, stage_name(r.stage), "stage",
                      extra));
    }
    emit(ev, s.end, event_json("E", s.end, s.origin, s.id, label, "span", {}));
  }

  for (const TraceEvent& e : events_) {
    std::string extra = "\"s\":\"g\",\"args\":{\"a\":";
    append_u64(extra, e.a);
    extra += ",\"b\":";
    append_u64(extra, e.b);
    extra += "}";
    emit(ev, e.t,
         event_json("i", e.t, 0, 0, trace_kind_name(e.kind), "trace", extra));
  }

  // Global ts order; stable, so same-ts events keep emission order and
  // B/E nesting survives the sort.
  std::stable_sort(ev.begin(), ev.end(),
                   [](const Rendered& a, const Rendered& b) {
                     return a.ts < b.ts;
                   });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < ev.size(); ++i) {
    out += i ? ",\n" : "\n";
    out += ev[i].json;
  }
  out += "\n]}\n";
  return out;
}

std::string TraceCapture::profile_json() const {
  TimeNs phase_ns[kSpanPhaseCount] = {};
  u64 completed = 0, incomplete = 0;
  for (const Span& s : spans_) {
    if (!s.ended) {
      ++incomplete;
      continue;
    }
    ++completed;
    const SpanBreakdown b = breakdown(s);
    for (u8 p = 0; p < kSpanPhaseCount; ++p) phase_ns[p] += b.phase_ns[p];
  }

  std::string out = "{\n  \"schema\": \"dgiwarp.profile.v1\",\n  \"runs\": ";
  append_u64(out, runs_);
  out += ",\n  \"spans\": {\"completed\": ";
  append_u64(out, completed);
  out += ", \"incomplete\": ";
  append_u64(out, incomplete);
  out += "},\n  \"phase_ns\": {";
  for (u8 p = 0; p < kSpanPhaseCount; ++p) {
    out += p ? ", " : "";
    out += '"';
    out += span_phase_name(static_cast<SpanPhase>(p));
    out += "\": ";
    append_u64(out, static_cast<u64>(phase_ns[p]));
  }
  out += "},\n  \"cost_total_ns\": ";
  append_u64(out, profiler_.total_ns());
  out += ",\n  \"cost_buckets\": ";
  out += profiler_.to_json();
  out += "\n}\n";
  return out;
}

Status TraceCapture::write_trace(const std::string& path) const {
  return write_file(path, trace_event_json());
}

// trace_event schema validation: the shared reader walks the document, and
// each event is checked as it goes by (required fields, global ts order,
// matched B/E pairs per (pid, tid) track).
Status validate_trace_event_json(std::string_view json) {
  JsonParser p{json};
  double prev_ts = -1.0;
  std::map<std::pair<long long, long long>, std::vector<std::string>> open;
  auto event = [&] {
    std::string ph, name;
    double ts = 0, pid = 0, tid = 0;
    bool has_ph = false, has_ts = false, has_pid = false, has_tid = false;
    const bool ok = p.object([&](const std::string& key) {
      if (key == "ph") return has_ph = p.parse_string(&ph);
      if (key == "name") return p.parse_string(&name);
      if (key == "ts") return has_ts = p.parse_number(&ts);
      if (key == "pid") return has_pid = p.parse_number(&pid);
      if (key == "tid") return has_tid = p.parse_number(&tid);
      return p.skip_value();
    });
    if (!ok) return false;
    if (!has_ph || !has_ts || !has_pid || !has_tid)
      return p.fail("missing ph/ts/pid/tid");
    if (ts < prev_ts) return p.fail("ts not monotonic");
    prev_ts = ts;
    const auto track = std::make_pair(static_cast<long long>(pid),
                                      static_cast<long long>(tid));
    if (ph == "B") {
      open[track].push_back(std::move(name));
    } else if (ph == "E") {
      auto it = open.find(track);
      if (it == open.end() || it->second.empty())
        return p.fail("E without open B");
      if (!name.empty() && name != it->second.back())
        return p.fail("mismatched B/E name");
      it->second.pop_back();
    }
    return true;
  };
  bool saw_trace_events = false;
  bool ok = p.document([&](const std::string& key) {
    if (key != "traceEvents") return p.skip_value();
    saw_trace_events = true;
    return p.array(event);
  });
  ok = ok && (saw_trace_events || p.fail("no traceEvents array"));
  for (const auto& [track, stack] : open)
    if (ok && !stack.empty()) ok = p.fail("unclosed B event");
  return p.status(ok, "trace");
}

}  // namespace dgiwarp::telemetry
