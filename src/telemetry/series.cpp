#include "telemetry/series.hpp"

#include <cstdio>
#include <cstdlib>

#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"

namespace dgiwarp::telemetry {

void Sampler::enable(TimeNs interval) {
  if (interval <= 0) {
    std::fprintf(stderr, "Sampler::enable: interval %lld ns is not positive\n",
                 static_cast<long long>(interval));
    std::abort();
  }
  interval_ = interval;
  enabled_ = true;
  next_due_ = 0;
  last_boundary_ = 0;
  samples_ = 0;
  sources_.clear();
  series_.clear();
}

void Sampler::add_probe(const std::string& name, std::function<double()> fn,
                        bool rate) {
  Source s;
  s.kind = Source::Kind::kProbe;
  s.name = name;
  s.fn = std::move(fn);
  s.rate = rate;
  sources_.push_back(std::move(s));
  series_.try_emplace(name, "probe", kSeriesCapacity);
  if (rate) series_.try_emplace(name + ".rate", "rate", kSeriesCapacity);
}

void Sampler::add_counter(const std::string& counter_name) {
  Source s;
  s.kind = Source::Kind::kCounter;
  s.name = counter_name;
  s.rate = true;
  sources_.push_back(std::move(s));
  series_.try_emplace(counter_name, "counter", kSeriesCapacity);
  series_.try_emplace(counter_name + ".rate", "rate", kSeriesCapacity);
}

void Sampler::sample_at(TimeNs boundary) {
  const double dt_sec =
      samples_ > 0 ? static_cast<double>(boundary - last_boundary_) * 1e-9
                   : 0.0;
  for (Source& src : sources_) {
    double v = 0.0;
    switch (src.kind) {
      case Source::Kind::kProbe:
        v = src.fn ? src.fn() : 0.0;
        break;
      case Source::Kind::kCounter:
        v = reg_ ? static_cast<double>(reg_->counter_value(src.name)) : 0.0;
        break;
    }
    series_[src.name].push(boundary, v);
    if (src.rate) {
      const double r =
          (src.have_last && dt_sec > 0.0) ? (v - src.last) / dt_sec : 0.0;
      series_[src.name + ".rate"].push(boundary, r);
    }
    src.last = v;
    src.have_last = true;
  }
  last_boundary_ = boundary;
  ++samples_;
}

const TimeSeries* Sampler::find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::string Sampler::run_json() const {
  std::string out;
  out.reserve(1024);
  out += "{\"interval_ns\": ";
  append_u64(out, static_cast<u64>(interval_));
  out += ", \"samples\": ";
  append_u64(out, samples_);
  out += ", \"series\": {";
  bool first = true;
  for (const auto& [name, ts] : series_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": {\"kind\": \"";
    out += ts.kind();
    out += "\", \"recorded\": ";
    append_u64(out, ts.recorded());
    out += ", \"dropped\": ";
    append_u64(out, ts.dropped());
    out += ", \"points\": [";
    bool pfirst = true;
    for (const SeriesPoint& p : ts.snapshot()) {
      out += pfirst ? "[" : ",[";
      pfirst = false;
      append_u64(out, static_cast<u64>(p.t));
      out += ',';
      append_double(out, p.v);
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}}" : "\n  }}";
  return out;
}

std::string timeseries_document(
    const std::vector<std::pair<std::string, std::string>>& runs) {
  std::string out = "{\n  \"schema\": \"";
  out += kTimeseriesSchema;
  out += "\",\n  \"runs\": {";
  bool first = true;
  for (const auto& [name, fragment] : runs) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += '"';
    append_escaped(out, name);
    out += "\": ";
    out += fragment;
  }
  out += first ? "}" : "\n  }";
  out += "\n}\n";
  return out;
}

// Schema validation: the shared reader walks every object and array, and
// each check is made as its value goes by.
bool parse_timeseries_run(JsonParser& p) {
  auto points = [&p] {
    double prev_t = -1.0;
    return p.array([&] {
      double t = 0.0;
      if (!p.expect('[') || !p.parse_number(&t) || !p.expect(',') ||
          !p.parse_number(nullptr) || !p.expect(']'))
        return false;
      if (t <= prev_t)
        return p.fail("point timestamps not strictly increasing");
      prev_t = t;
      return true;
    });
  };
  auto series_entry = [&](const std::string&) {
    bool saw_kind = false, saw_points = false;
    const bool ok = p.object([&](const std::string& key) {
      if (key == "kind") {
        saw_kind = true;
        std::string kind;
        if (!p.parse_string(&kind)) return false;
        return kind == "probe" || kind == "counter" || kind == "rate" ||
               p.fail("unknown series kind '" + kind + "'");
      }
      if (key == "points") return saw_points = points();
      if (key == "recorded" || key == "dropped") return p.parse_number(nullptr);
      return p.skip_value();
    });
    return ok && (saw_kind || p.fail("series missing kind")) &&
           (saw_points || p.fail("series missing points"));
  };
  bool saw_interval = false, saw_series = false;
  const bool ok = p.object([&](const std::string& key) {
    if (key == "interval_ns") {
      saw_interval = true;
      double v = 0.0;
      return p.parse_number(&v) &&
             (v > 0.0 || p.fail("interval_ns must be positive"));
    }
    if (key == "series") return saw_series = p.object(series_entry);
    return p.skip_value();
  });
  return ok && (saw_interval || p.fail("run missing interval_ns")) &&
         (saw_series || p.fail("run missing series"));
}

Status validate_timeseries_json(std::string_view json) {
  JsonParser p{json};
  auto run = [&p](const std::string&) { return parse_timeseries_run(p); };
  bool saw_schema = false, saw_runs = false;
  const bool ok = p.document([&](const std::string& key) {
    if (key == "schema") return saw_schema = p.parse_schema(kTimeseriesSchema);
    if (key == "runs") return saw_runs = p.object(run);
    return p.skip_value();
  });
  return p.status(ok && (saw_schema || p.fail("missing schema")) &&
                      (saw_runs || p.fail("missing runs")),
                  "timeseries");
}

}  // namespace dgiwarp::telemetry
