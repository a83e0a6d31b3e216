// Flight recorder: one self-contained JSON post-mortem of a simulation.
//
// When a watchdog trips or a bench self-gate fails, end-of-run aggregates
// are already too coarse — what you want is the state *around* the
// violation: the last-N trace events, the tail of every sampled series,
// the watchdog's trip list, and the registry's counters/gauges at the
// moment of death. flight_recorder_json captures exactly that from a live
// Registry into a "dgiwarp.flight.v1" document; benches write it next to
// their other artifacts when `--strict-health` fails so the violating run
// can be diagnosed without re-running.
//
// The dump is bounded by construction (ring tails, capped trip list) and
// deterministic (map-ordered keys, %.17g doubles) like every other export.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"

namespace dgiwarp::telemetry {

class Registry;

inline constexpr const char* kFlightSchema = "dgiwarp.flight.v1";

/// Keeps the newest 256 trace-ring events and the newest 64 points of each
/// sampled series.
std::string flight_recorder_json(const Registry& reg, std::string_view reason);

/// Structural validation: schema tag, reason, watchdog block with a trips
/// array, trace tail with non-decreasing timestamps, counters object.
Status validate_flight_recorder_json(std::string_view json);

}  // namespace dgiwarp::telemetry
