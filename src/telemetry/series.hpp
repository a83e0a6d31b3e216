// Virtual-time time-series sampling over the telemetry registry.
//
// The registry (registry.hpp) aggregates end-of-run totals; the paper-style
// questions the benches actually ask — how fast DCQCN converges after an
// incast burst, whether a trunk queue drains between rounds, whether a
// tenant's memory footprint plateaus — are about *trajectories*. A Sampler
// snapshots a chosen set of sources on a fixed virtual-time cadence into
// bounded ring-buffered series:
//
//   - registry counters by name (plus a derived `<name>.rate` in events/s),
//   - arbitrary probes (std::function<double()>): per-link queue depth via
//     a sim::Topology handle, per-flow cc rate, per-tenant MemLedger
//     totals — the rollups the registry's flat aggregate cannot express.
//
// Sampling is driven from Registry::advance_clock (one predictable branch
// when disabled — the same near-zero-cost discipline as the trace ring),
// so it ticks on ordinary event execution and on idle deadline advances
// alike; every interval boundary the clock crosses gets exactly one sample,
// which is what makes two same-seed runs export byte-identical documents.
//
// Export is `--timeseries-json`: schema "dgiwarp.timeseries.v1", one or
// more named runs (timeseries_document) each holding one sampler's
// run_json fragment; the flight recorder embeds the same fragment.
// validate_timeseries_json structurally checks a document the way
// validate_trace_event_json checks Perfetto exports.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "telemetry/ring.hpp"

namespace dgiwarp::telemetry {

class Registry;
struct JsonParser;

inline constexpr const char* kTimeseriesSchema = "dgiwarp.timeseries.v1";

struct SeriesPoint {
  TimeNs t = 0;
  double v = 0.0;
};

/// Fixed-capacity point ring (BoundedRing, as the trace uses): once full the
/// oldest point is overwritten and counted in dropped(), so memory stays
/// bounded regardless of run length.
class TimeSeries {
 public:
  TimeSeries() = default;
  TimeSeries(const char* kind, std::size_t capacity)
      : kind_(kind), ring_(capacity) {}

  void push(TimeNs t, double v) { ring_.push(SeriesPoint{t, v}); }
  /// Points currently held, oldest first.
  std::vector<SeriesPoint> snapshot() const { return ring_.snapshot(); }

  const char* kind() const { return kind_; }
  std::size_t size() const { return ring_.size(); }
  u64 recorded() const { return ring_.recorded(); }
  u64 dropped() const { return ring_.dropped(); }
  /// Latest point (t=0/v=0 when empty).
  SeriesPoint last() const { return ring_.last(); }

 private:
  const char* kind_ = "probe";
  BoundedRing<SeriesPoint> ring_{1};
};

/// Points a Sampler retains per series.
inline constexpr std::size_t kSeriesCapacity = 4096;

/// Disabled by default; owned by Registry and driven from its clock mirror.
/// enable() resets all sources and series, so a sampler is configured
/// enable-then-register, before the run whose trajectory it should see.
class Sampler {
 public:
  /// Sample every `interval` of virtual time. An interval <= 0 is a caller
  /// bug: it prints the interval to stderr and aborts.
  void enable(TimeNs interval);
  bool enabled() const { return enabled_; }

  /// Arbitrary rollup source; with rate=true a derived `<name>.rate` series
  /// (units/s of virtual time) is emitted alongside the raw values.
  void add_probe(const std::string& name, std::function<double()> fn,
                 bool rate = false);
  /// Registry counter by name (0 while the key is absent — lazily bound
  /// keys simply read as zero until their first increment). Always derives
  /// `<name>.rate` in events/s: for monotonic counters the rate IS the
  /// interesting series.
  void add_counter(const std::string& counter_name);

  /// Clock hook (Registry::advance_clock). Samples every interval boundary
  /// in (last, t] — one point per boundary regardless of how the clock got
  /// there, so idle deadline jumps and dense event bursts sample alike.
  void on_advance(TimeNs t) {
    while (next_due_ <= t) {
      sample_at(next_due_);
      next_due_ += interval_;
    }
  }

  const TimeSeries* find(const std::string& name) const;

  /// One run's fragment: {"interval_ns":..,"samples":..,"series":{..}}.
  /// Deterministic: map-ordered keys, u64 timestamps, %.17g values.
  std::string run_json() const;

 private:
  friend class Registry;
  void bind(const Registry* reg) { reg_ = reg; }
  void sample_at(TimeNs boundary);

  struct Source {
    enum class Kind : u8 { kProbe, kCounter };
    Kind kind = Kind::kProbe;
    std::string name;
    std::function<double()> fn;  // kProbe only
    bool rate = false;
    double last = 0.0;
    bool have_last = false;
  };

  bool enabled_ = false;
  TimeNs interval_ = 0;
  const Registry* reg_ = nullptr;
  TimeNs next_due_ = 0;
  TimeNs last_boundary_ = 0;
  std::size_t samples_ = 0;
  std::vector<Source> sources_;
  std::map<std::string, TimeSeries> series_;
};

/// Assemble several run fragments (Sampler::run_json) into one schema
/// document — how fig13 exports off/dcqcn/timely trajectories side by side.
/// The one timeseries writer.
std::string timeseries_document(
    const std::vector<std::pair<std::string, std::string>>& runs);

/// Structural validation of a timeseries document: schema tag, then
/// parse_timeseries_run on every entry of the runs map.
Status validate_timeseries_json(std::string_view json);

/// The per-run check, on the run fragment at the parser's cursor: positive
/// interval_ns, a series map, and per series a known kind (probe, counter,
/// rate) and strictly increasing point timestamps. validate_timeseries_json
/// and validate_flight_recorder_json both call it.
bool parse_timeseries_run(JsonParser& p);

}  // namespace dgiwarp::telemetry
