// Shared helpers for the figure-regeneration benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
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

/// Parse `<flag> <path>` from argv ("" if absent).
inline std::string arg_path(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return {};
}

/// True if the bare flag is present anywhere in argv.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

/// The flag surface shared by the figure benches, parsed once. Individual
/// benches ignore fields they have no use for; what matters is that the
/// *parsing* lives here instead of being copy-pasted per bench.
struct BenchArgs {
  std::string metrics_json;     // --metrics-json <path>
  std::string trace_json;       // --trace-json <path>
  std::string profile_json;     // --profile-json <path>
  std::string timeseries_json;  // --timeseries-json <path>
  std::string flight_json;      // --flight-json <path>
  bool smoke = false;           // --smoke: reduced workload
  bool ablate = false;          // --ablate: parameter sweeps
  bool strict_health = false;   // --strict-health: watchdog trips fail run
  bool inject_stall = false;    // --inject-stall: black-hole one sender

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs a;
    a.metrics_json = arg_path(argc, argv, "--metrics-json");
    a.trace_json = arg_path(argc, argv, "--trace-json");
    a.profile_json = arg_path(argc, argv, "--profile-json");
    a.timeseries_json = arg_path(argc, argv, "--timeseries-json");
    a.flight_json = arg_path(argc, argv, "--flight-json");
    a.smoke = has_flag(argc, argv, "--smoke");
    a.ablate = has_flag(argc, argv, "--ablate");
    a.strict_health = has_flag(argc, argv, "--strict-health");
    a.inject_stall = has_flag(argc, argv, "--inject-stall");
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

/// Write `body` to `path`; reports a failure on stderr like dump_metrics.
inline bool write_text_file(const std::string& path, const std::string& body,
                            const char* what) {
  if (telemetry::write_file(path, body).ok()) return true;
  std::fprintf(stderr, "failed to write %s to %s\n", what, path.c_str());
  return false;
}

/// Validate + write a timeseries document; exits 1 on schema violation —
/// an exported-but-broken document is a bug, exactly like dump_capture's
/// trace handling, and the fig13_incast_strict_health ctest leans on this
/// exit code.
inline void dump_timeseries(const std::string& doc, const std::string& path) {
  if (path.empty()) return;
  if (Status v = telemetry::validate_timeseries_json(doc); !v.ok()) {
    std::fprintf(stderr, "timeseries export failed schema validation: %s\n",
                 v.to_string().c_str());
    std::exit(1);
  }
  if (write_text_file(path, doc, "timeseries"))
    std::printf("\ntimeseries written to %s (schema-valid)\n", path.c_str());
}

/// Write the capture's trace / profile documents to any requested paths.
/// The trace is validated against the trace_event schema first and the
/// process aborts on a violation — an exported-but-broken trace is a bug,
/// and golden.fig5_latency leans on this exit code.
inline void dump_capture(const telemetry::TraceCapture& cap,
                         const std::string& trace_path,
                         const std::string& profile_path) {
  if (!trace_path.empty()) {
    const std::string trace = cap.trace_event_json();
    if (Status v = telemetry::validate_trace_event_json(trace); !v.ok()) {
      std::fprintf(stderr, "trace export failed schema validation: %s\n",
                   v.to_string().c_str());
      std::exit(1);
    }
    if (write_text_file(trace_path, trace, "trace"))
      std::printf("\ntrace written to %s (%zu spans, %zu runs, "
                  "schema-valid)\n",
                  trace_path.c_str(), cap.spans().size(), cap.runs());
  }
  if (!profile_path.empty() &&
      write_text_file(profile_path, cap.profile_json(), "profile"))
    std::printf("profile written to %s\n", profile_path.c_str());
}

/// Write the aggregate registry to `path` if one was requested.
inline void dump_metrics(const telemetry::Registry& reg,
                         const std::string& path) {
  if (path.empty()) return;
  if (reg.write_json_file(path.c_str()).ok())
    std::printf("\nmetrics written to %s\n", path.c_str());
  else
    std::fprintf(stderr, "failed to write metrics to %s\n", path.c_str());
}

inline void banner(const char* title, const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("all numbers are virtual time on the calibrated cost model "
              "(see DESIGN.md)\n\n");
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
