// Unified cross-layer metrics registry — the one stats surface for the
// whole stack.
//
// Every layer (simnet links/switch/NIC, hoststack IP/TCP, the RD layer,
// verbs CQs/QPs, rdmap Write-Record, isock) publishes its counters here
// under dotted `layer.component.metric` names (see DESIGN.md §Telemetry).
// The registry is scoped to one Simulation: metrics never leak between
// experiments, insertion is name-ordered (std::map), and values are
// integers or deterministically formatted doubles, so two runs with the
// same seed export byte-identical JSON.
//
// The registry Counter is the one count of every event; a layer holds the
// Counter& it bumps. A per-object view (LinkStats, RdStats, RcQpStats, a few
// accessors) keeps a Metric, a local count that also bumps the Counter, only
// where a reader compares instances that move the same counter (LAG members,
// RD flows, a connection's two ends). Each event is counted once, under one
// name: a layer does not re-count what a layer below it already reports, and
// a gauge exists only where one value means something for the whole
// Simulation (`rd.rx_ooo_bytes` sums every endpoint's delta).
#pragma once

#include <map>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "telemetry/health.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/series.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"

namespace dgiwarp::telemetry {

/// Monotonic aggregate counter. References returned by
/// Registry::counter() are stable for the registry's lifetime.
class Counter {
 public:
  void inc(u64 n = 1) { v_ += n; }
  u64 value() const { return v_; }

 private:
  u64 v_ = 0;
};

/// Last-value gauge that also remembers its high-water mark. Several writers
/// must add deltas (`rd.rx_ooo_bytes`), or the value is whichever wrote last.
class Gauge {
 public:
  void set(double v) {
    v_ = v;
    if (!seen_ || v > max_) max_ = v;
    seen_ = true;
  }
  void add(double d) { set(v_ + d); }
  double value() const { return v_; }
  double max() const { return seen_ ? max_ : 0.0; }

 private:
  double v_ = 0.0;
  double max_ = 0.0;
  bool seen_ = false;
};

/// Distribution with exact percentiles (common/stats.hpp Samples).
/// Intended for bounded-count series (per-WR latency, per-completion queue
/// depth), not per-byte events. Each sample is stored once; the moments
/// are folded over the samples on demand.
class Histogram {
 public:
  void add(double x) { samples_.add(x); }
  std::size_t count() const { return samples_.count(); }
  double mean() const { return stat().mean(); }
  double percentile(double p) const { return samples_.percentile(p); }
  /// Count, mean, min and max from a RunningStat fed the samples in
  /// insertion order; the exported mean depends on that order.
  RunningStat stat() const {
    RunningStat st;
    for (double x : samples_.values()) st.add(x);
    return st;
  }
  const Samples& samples() const { return samples_; }

 private:
  Samples samples_;
};

/// One field of a per-object view: an instance-local count whose increments
/// also go to an aggregate registry Counter once bound. Kept only where a
/// reader needs one instance's count while another instance in the same
/// Simulation moves the same Counter; everywhere else a layer holds the
/// Counter itself.
class Metric {
 public:
  /// Send future increments to `aggregate` too (additive with any earlier
  /// local count; bind before the first increment for exact agreement).
  void bind(Counter& aggregate) { agg_ = &aggregate; }

  void inc(u64 n = 1) {
    local_ += n;
    if (agg_) agg_->inc(n);
  }
  void operator++() { inc(); }
  void operator+=(u64 n) { inc(n); }

  u64 value() const { return local_; }
  operator u64() const { return local_; }  // NOLINT — reads stay `u64`-like

 private:
  u64 local_ = 0;
  Counter* agg_ = nullptr;
};

/// Per-Simulation metrics store. Obtain via sim::Simulation::telemetry()
/// (every layer can reach it through its HostCtx / Device / fabric handle).
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Names are dotted `layer.component.metric` (DESIGN.md
  /// §Telemetry); returned references stay valid for the registry's life.
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Read-only lookup without creating (0 / nullptr when absent).
  u64 counter_value(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  bool has(const std::string& name) const;
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  TraceRing& trace() { return trace_; }
  const TraceRing& trace() const { return trace_; }

  /// Message-lifecycle spans (span.hpp). Clock-wired by the constructor
  /// exactly like the trace ring; disabled by default.
  SpanTracker& spans() { return spans_; }
  const SpanTracker& spans() const { return spans_; }

  /// Cost-attribution profiler (profiler.hpp): fed by the CostSite-tagged
  /// CpuModel charge overloads; disabled by default.
  CostProfiler& profiler() { return profiler_; }
  const CostProfiler& profiler() const { return profiler_; }

  /// Virtual-time series sampler (series.hpp): snapshots selected
  /// counters/gauges/probes on a fixed cadence; disabled by default.
  Sampler& sampler() { return sampler_; }
  const Sampler& sampler() const { return sampler_; }

  /// Invariant watchdogs (health.hpp): stuck queues, stalled flows, retx
  /// storms, pinned rates, memory leaks; disabled by default.
  Watchdog& watchdog() { return watchdog_; }
  const Watchdog& watchdog() const { return watchdog_; }

  /// Per-Simulation frame-id allocator (used by sim::Nic). Scoping ids to
  /// the Simulation — instead of a process-global counter — keeps exported
  /// traces byte-identical across same-seed runs inside one process.
  u64 alloc_frame_id() { return next_frame_id_++; }

  /// Virtual-clock mirror. Advanced by the owning Simulation as events
  /// execute; trace events are stamped from it so instrumented layers never
  /// call Simulation::now() themselves.
  TimeNs now() const { return now_; }
  void advance_clock(TimeNs t) {
    now_ = t;
    // One predictable branch each when the layers are off — the same
    // hot-path discipline as TraceRing::record.
    if (sampler_.enabled()) sampler_.on_advance(t);
    if (watchdog_.enabled()) watchdog_.on_advance(t);
  }

  /// Fold another registry into this one: counters add, gauges keep the
  /// overall max / latest value, histogram samples append, profiler buckets
  /// add. Used by the bench harness to aggregate the per-measurement
  /// Simulations behind one --metrics-json. Trace events and spans are not
  /// merged: each run's clock restarts at 0, so a cross-run timeline needs
  /// the time offsets TraceCapture::absorb (trace_export.hpp) applies.
  void merge_from(const Registry& other);

  /// The metrics document (--metrics-json; the flight recorder embeds it
  /// verbatim). Keys sorted (map iteration), integers exact, doubles via
  /// "%.17g". Same seed -> byte-identical document.
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  TraceRing trace_;
  SpanTracker spans_;
  CostProfiler profiler_;
  Sampler sampler_;
  Watchdog watchdog_;
  u64 next_frame_id_ = 1;
  TimeNs now_ = 0;
};

}  // namespace dgiwarp::telemetry
