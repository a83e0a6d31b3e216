// Flight recorder: one self-contained JSON post-mortem of a simulation.
//
// When a watchdog trips or a bench self-gate fails, end-of-run aggregates
// are already too coarse — what you want is the state *around* the
// violation. flight_recorder_json captures it from a live Registry into a
// "dgiwarp.flight.v2" document that embeds the run's other documents
// instead of serializing their values a second time:
//
//   trips    Watchdog::trips_json(): every kept trip, in time order;
//   series   Sampler::run_json(): present only while the sampler is enabled
//            (an unsampled fragment has interval_ns 0 and would not validate);
//   metrics  Registry::to_json(), byte for byte what a --metrics-json dump
//            of the same registry holds: counters, gauges, histograms, the
//            trace ring and the profiler. It comes last, so its closing
//            newline also ends the flight document.
//
// Benches write the dump next to their other artifacts when a trip or a
// gate fails, so the violating run can be diagnosed without re-running.
// It is bounded by the rings it embeds: the trace ring's capacity (the
// benches arm the ring at kFlightTraceEvents for the recorder), the
// Sampler's kSeriesCapacity points per series and kMaxWatchdogTrips trips.
// It is deterministic like every other export.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace dgiwarp::telemetry {

class Registry;

inline constexpr const char* kFlightSchema = "dgiwarp.flight.v2";

/// Trace-ring capacity a bench arms for the flight recorder alone: the
/// ring keeps the newest events, oldest first.
inline constexpr std::size_t kFlightTraceEvents = 256;

std::string flight_recorder_json(const Registry& reg, std::string_view reason);

/// Structural validation: schema tag, non-empty reason, a rule on every
/// trip, metrics with counters and time-ordered trace events, and the
/// series fragment (when present) under the timeseries run check.
Status validate_flight_recorder_json(std::string_view json);

}  // namespace dgiwarp::telemetry
