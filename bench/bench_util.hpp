// Shared helpers for the figure-regeneration benches.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "perf/harness.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/json_lite.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace_export.hpp"

namespace dgiwarp::bench {

/// The flags a bench can take. Each bench passes parse() the set it reads.
enum Flag : unsigned {
  kNoFlags = 0,
  kMetricsJson = 1u << 0,     // --metrics-json <path>
  kTraceJson = 1u << 1,       // --trace-json <path>
  kProfileJson = 1u << 2,     // --profile-json <path>
  kTimeseriesJson = 1u << 3,  // --timeseries-json <path>
  kFlightJson = 1u << 4,      // --flight-json <path>
  kSmoke = 1u << 5,           // --smoke: reduced workload
  kAblate = 1u << 6,          // --ablate: parameter sweeps
  kStrictHealth = 1u << 7,    // --strict-health: watchdog trips fail run
  kInjectStall = 1u << 8,     // --inject-stall: black-hole one sender
};

/// One flag in BenchArgs::parse's tables: its name, its bit, and the field
/// it sets.
template <class T>
struct FlagSlot {
  const char* name;
  Flag flag;
  T* out;
};

/// The flag surface shared by the figure benches, parsed once.
struct BenchArgs {
  std::string metrics_json;
  std::string trace_json;
  std::string profile_json;
  std::string timeseries_json;
  std::string flight_json;
  bool smoke = false;
  bool ablate = false;
  bool strict_health = false;
  bool inject_stall = false;

  /// One pass over argv, accepting only the flags in `accepted`. A path
  /// flag given last, without its path, or any other argument prints a
  /// usage line naming it on stderr and exits 2: a requested export never
  /// goes missing silently.
  static BenchArgs parse(int argc, char** argv, unsigned accepted) {
    BenchArgs a;
    const FlagSlot<std::string> paths[] = {
        {"--metrics-json", kMetricsJson, &a.metrics_json},
        {"--trace-json", kTraceJson, &a.trace_json},
        {"--profile-json", kProfileJson, &a.profile_json},
        {"--timeseries-json", kTimeseriesJson, &a.timeseries_json},
        {"--flight-json", kFlightJson, &a.flight_json}};
    const FlagSlot<bool> switches[] = {
        {"--smoke", kSmoke, &a.smoke},
        {"--ablate", kAblate, &a.ablate},
        {"--strict-health", kStrictHealth, &a.strict_health},
        {"--inject-stall", kInjectStall, &a.inject_stall}};
    const auto takes = [accepted](const auto& f) {
      return (accepted & f.flag) != 0;
    };
    const auto fail = [&](const char* arg, const char* why) {
      std::fprintf(stderr, "%s: %s %s\nusage: %s", argv[0], arg, why,
                   argv[0]);
      for (const auto& p : paths)
        if (takes(p)) std::fprintf(stderr, " [%s <path>]", p.name);
      for (const auto& s : switches)
        if (takes(s)) std::fprintf(stderr, " [%s]", s.name);
      std::fprintf(stderr, "\n");
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const auto named = [&](const auto& f) {
        return takes(f) && std::strcmp(f.name, arg) == 0;
      };
      if (const auto p = std::ranges::find_if(paths, named);
          p != std::end(paths)) {
        if (i + 1 == argc) fail(arg, "needs a <path>");
        *p->out = argv[++i];
      } else if (const auto s = std::ranges::find_if(switches, named);
                 s != std::end(switches)) {
        *s->out = true;
      } else {
        fail(arg, "is not a flag of this bench");
      }
    }
    return a;
  }
};

/// "dir/name.json" + "dcqcn" -> "dir/name.dcqcn.json" (suffix appended
/// when there is no extension) — per-point dump paths for --ablate sweeps.
inline std::string suffixed_path(const std::string& path,
                                 const std::string& suffix) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return path + "." + suffix;
  return path.substr(0, dot) + "." + suffix + path.substr(dot);
}

/// Write `body` to `path`. A requested export that cannot be written fails
/// the run: exit 1, naming the path.
inline void write_text_file(const std::string& path, const std::string& body,
                            const char* what) {
  if (telemetry::write_file(path, body).ok()) return;
  std::fprintf(stderr, "failed to write %s to %s\n", what, path.c_str());
  std::exit(1);
}

/// Exit 1 on a schema violation: an exported-but-broken document is a bug.
inline void require_valid(const Status& v, const char* what) {
  if (v.ok()) return;
  std::fprintf(stderr, "%s failed schema validation: %s\n", what,
               v.to_string().c_str());
  std::exit(1);
}

/// Validate + write a timeseries document; the fig13_incast_strict_health
/// ctest leans on the exit code of a violation.
inline void dump_timeseries(const std::string& doc, const std::string& path) {
  if (path.empty()) return;
  require_valid(telemetry::validate_timeseries_json(doc), "timeseries export");
  write_text_file(path, doc, "timeseries");
  std::printf("\ntimeseries written to %s (schema-valid)\n", path.c_str());
}

/// Validate + write a flight-recorder document (a trip or a gate failure);
/// validate_flight_recorder_json gates every flight write.
inline void dump_flight(const std::string& flight, const std::string& path) {
  if (flight.empty() || path.empty()) return;
  require_valid(telemetry::validate_flight_recorder_json(flight),
                "flight recorder");
  write_text_file(path, flight, "flight recorder");
  std::printf("flight recorder written to %s (schema-valid)\n", path.c_str());
}

/// Write the capture's trace / profile documents to any requested paths.
/// The trace is validated against the trace_event schema first;
/// golden.fig5_latency leans on the exit code of a violation.
inline void dump_capture(const telemetry::TraceCapture& cap,
                         const std::string& trace_path,
                         const std::string& profile_path) {
  if (!trace_path.empty()) {
    const std::string trace = cap.trace_event_json();
    require_valid(telemetry::validate_trace_event_json(trace), "trace export");
    write_text_file(trace_path, trace, "trace");
    std::printf("\ntrace written to %s (%zu spans, %zu runs, "
                "schema-valid)\n",
                trace_path.c_str(), cap.spans().size(), cap.runs());
  }
  if (!profile_path.empty()) {
    write_text_file(profile_path, cap.profile_json(), "profile");
    std::printf("profile written to %s\n", profile_path.c_str());
  }
}

/// Write the aggregate registry to `path` if one was requested.
inline void dump_metrics(const telemetry::Registry& reg,
                         const std::string& path) {
  if (path.empty()) return;
  write_text_file(path, reg.to_json(), "metrics");
  std::printf("\nmetrics written to %s\n", path.c_str());
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("all numbers are virtual time on the calibrated cost model "
              "(see DESIGN.md)\n\n");
}

/// This process's peak resident set in MB (10^6 bytes), from VmHWM in
/// /proc/self/status; 0 where that is not available.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f))
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return static_cast<double>(kb) * 1024.0 / 1e6;
}

inline double pct_improvement(double better, double worse) {
  if (worse <= 0.0) return 0.0;
  return (worse - better) / worse * 100.0;
}

inline double pct_higher(double a, double b) {
  if (b <= 0.0) return 0.0;
  return (a - b) / b * 100.0;
}

}  // namespace dgiwarp::bench
