// Measurement plumbing shared by the three benchmark workloads.
//
// Every workload fills one Output. Its values fall into four groups, and
// run.py treats each group differently:
//  * det    - virtual-time results and registry counters. Identical across
//             every pass of one seed, traced or not (tracing must not
//             perturb the model).
//  * repro  - heap-allocation counts and the registry digest. Identical
//             across untraced passes of one seed; tracing changes them.
//  * wall   - host wall-clock and memory figures (noisy).
//  * traced - figures only a traced pass can take (per-call wall timers,
//             event gaps, spans, the cost profiler).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "simnet/simulation.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/registry.hpp"

namespace pb {

using dgiwarp::TimeNs;
using dgiwarp::u64;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Every heap allocation the process made (alloc_hook.cpp replaces the
/// global operator new/delete family).
struct HeapTally {
  u64 count = 0;
  u64 bytes = 0;
};
HeapTally heap_tally();

/// Peak resident set of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// Linear-interpolated percentile, p in [0, 100]; 0 for an empty set.
double percentile(std::vector<double> v, double p);

/// FNV-1a-64 over `s`, chained from `h`.
u64 fnv1a(u64 h, const std::string& s);
inline constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

struct Output {
  std::map<std::string, double> det;
  std::map<std::string, double> repro;
  std::map<std::string, double> wall;
  std::map<std::string, double> traced;
  u64 ops = 0;     // ops attempted
  u64 failed = 0;  // ops failed, given up or never completed
  u64 registry_fnv = kFnvBasis;  // digest of every registry's JSON (repro)
  std::vector<std::string> errors;  // broken output invariants

  void error(std::string msg) { errors.push_back(std::move(msg)); }
  /// Accumulate registry counters into det under their own names.
  void add_counters(const dgiwarp::telemetry::Registry& reg,
                    const std::vector<std::string>& names);
};

/// Wall time and allocations split into the set-up and run phases of a
/// workload. A workload may alternate (one set-up + run per point).
class Phases {
 public:
  void begin_setup() { mark(); in_run_ = false; }
  void begin_run() { mark(); in_run_ = true; }
  /// Close the current phase; time after this is attributed to neither.
  void end() { mark(); open_ = false; }

  double setup_s = 0.0;
  double run_s = 0.0;
  HeapTally setup_alloc;
  HeapTally run_alloc;
  HeapTally run_bytes_path;  // Bytes-only tally (common/memcount.hpp)

 private:
  void mark();
  bool open_ = false;
  bool in_run_ = false;
  Clock::time_point t0_;
  HeapTally a0_;
  u64 path_count0_ = 0;
  u64 path_bytes0_ = 0;
};

/// Traced-pass instrumentation. A workload receives a Tracer only on a
/// traced pass; on an untraced pass the pointer is null and nothing here
/// runs.
class Tracer : public dgiwarp::sim::SimObserver {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;  // the simulation holds its address
  Tracer& operator=(const Tracer&) = delete;

  /// Turn on spans, profiler and trace ring and install the event clock.
  void attach(dgiwarp::sim::Simulation& sim);
  /// Harvest spans, profiler totals and link queue waits from a finished
  /// simulation and detach from it.
  void collect(dgiwarp::sim::Simulation& sim);

  void on_event(TimeNs t, u64 seq) override;

  // Wall time of single calls, in ns (see timed()).
  std::vector<double> post_send_ns;
  std::vector<double> poll_ns;
  std::vector<double> node_ns;
  std::vector<double> isock_ns;
  std::vector<double> sip_ns;

  /// Fill Output::traced with the per-layer figures gathered so far.
  void report(Output& out, u64 ops) const;

 private:
  dgiwarp::sim::Simulation* sim_ = nullptr;
  Clock::time_point last_{};
  bool have_last_ = false;
  std::vector<float> gaps_ns_;
  std::size_t pending_max_ = 0;
  std::vector<double> phase_ns_[dgiwarp::telemetry::kSpanPhaseCount];
  std::vector<double> queue_wait_ns_;
  u64 prof_ns_[dgiwarp::telemetry::kCostLayerCount] = {};
};

/// f(); on a traced pass its wall time in ns is appended to tr->*into.
template <typename F>
auto timed(Tracer* tr, std::vector<double> Tracer::*into, F&& f) {
  if (!tr) return f();
  const auto t0 = Clock::now();
  auto r = f();
  (tr->*into).push_back(
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  return r;
}

}  // namespace pb
