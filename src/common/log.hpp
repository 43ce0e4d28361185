// Tiny leveled logger. Off by default; benches/examples can raise the level
// to trace simulator decisions (placement, spill, striping choices).
#pragma once

#include <sstream>
#include <string>

namespace uvs {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global minimum level; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

/// Reads UVS_LOG_LEVEL (trace|debug|info|warn|error|off, case-insensitive)
/// and applies it; leaves the level untouched when the variable is unset or
/// unrecognized. Entry points call this once at startup.
void InitLogLevelFromEnv();

/// While alive, appends this thread's log lines to `*sink`, formatted as
/// they would be on stderr, instead of printing them. Parallel sweeps keep
/// each run's lines with its result and print them in a fixed order.
class LogCapture {
 public:
  explicit LogCapture(std::string* sink);
  ~LogCapture();
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

 private:
  std::string* outer_;
};

namespace internal {
void LogLine(LogLevel level, const std::string& msg);
}

}  // namespace uvs

#define UVS_LOG(level, expr)                                        \
  do {                                                              \
    if (static_cast<int>(level) >= static_cast<int>(::uvs::GetLogLevel())) { \
      std::ostringstream uvs_log_os_;                               \
      uvs_log_os_ << expr;                                          \
      ::uvs::internal::LogLine(level, uvs_log_os_.str());           \
    }                                                               \
  } while (false)

#define UVS_TRACE(expr) UVS_LOG(::uvs::LogLevel::kTrace, expr)
#define UVS_DEBUG(expr) UVS_LOG(::uvs::LogLevel::kDebug, expr)
#define UVS_INFO(expr) UVS_LOG(::uvs::LogLevel::kInfo, expr)
#define UVS_WARN(expr) UVS_LOG(::uvs::LogLevel::kWarn, expr)
#define UVS_ERROR(expr) UVS_LOG(::uvs::LogLevel::kError, expr)
