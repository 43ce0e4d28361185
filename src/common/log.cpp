#include "src/common/log.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/common/status.hpp"

namespace uvs {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
thread_local std::string* t_sink = nullptr;  // LogCapture target; null = stderr

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }
void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

void InitLogLevelFromEnv() {
  const char* raw = std::getenv("UVS_LOG_LEVEL");
  if (raw == nullptr) return;
  std::string value(raw);
  for (char& c : value) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (value == "trace") SetLogLevel(LogLevel::kTrace);
  else if (value == "debug") SetLogLevel(LogLevel::kDebug);
  else if (value == "info") SetLogLevel(LogLevel::kInfo);
  else if (value == "warn" || value == "warning") SetLogLevel(LogLevel::kWarn);
  else if (value == "error") SetLogLevel(LogLevel::kError);
  else if (value == "off" || value == "none") SetLogLevel(LogLevel::kOff);
  else UVS_WARN("log: unrecognized UVS_LOG_LEVEL '" << raw << "' ignored");
}

LogCapture::LogCapture(std::string* sink) : outer_(t_sink) { t_sink = sink; }
LogCapture::~LogCapture() { t_sink = outer_; }

namespace internal {
void LogLine(LogLevel level, const std::string& msg) {
  if (t_sink == nullptr) {
    std::fprintf(stderr, "[%s] %s\n", LevelName(level), msg.c_str());
    return;
  }
  *t_sink += '[';
  *t_sink += LevelName(level);
  *t_sink += "] ";
  *t_sink += msg;
  *t_sink += '\n';
}
}  // namespace internal

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kAlreadyExists: return "ALREADY_EXISTS";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "?";
}

}  // namespace uvs
