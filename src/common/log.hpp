// Minimal leveled logger. The simulator is single-threaded; no locking.
#pragma once

#include <cstdio>
#include <string>

namespace dgiwarp {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

namespace logging {

/// Global threshold; messages below it are discarded. Defaults to kWarn so
/// tests and benches stay quiet unless asked.
LogLevel level();
void set_level(LogLevel lvl);

/// Parse "trace"/"debug"/"info"/"warn"/"error"/"off"; unknown -> kWarn.
LogLevel parse_level(const std::string& name);

void vlog(LogLevel lvl, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace logging

#define DGI_LOG(lvl, tag, ...)                                \
  do {                                                        \
    if ((lvl) >= ::dgiwarp::logging::level()) {               \
      ::dgiwarp::logging::vlog((lvl), (tag), __VA_ARGS__);    \
    }                                                         \
  } while (0)

#define DGI_DEBUG(tag, ...) DGI_LOG(::dgiwarp::LogLevel::kDebug, tag, __VA_ARGS__)
#define DGI_INFO(tag, ...) DGI_LOG(::dgiwarp::LogLevel::kInfo, tag, __VA_ARGS__)
#define DGI_WARN(tag, ...) DGI_LOG(::dgiwarp::LogLevel::kWarn, tag, __VA_ARGS__)
#define DGI_ERROR(tag, ...) DGI_LOG(::dgiwarp::LogLevel::kError, tag, __VA_ARGS__)

}  // namespace dgiwarp
