#include "util/logging.h"

#include <cstdio>

#include "sim/context.h"

namespace wgtt {

const char* to_string(LogLevel l) {
  switch (l) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void LogSink::write(LogLevel level, std::string_view component,
                    std::string_view message) {
  std::fprintf(stderr, "[%s] %.*s: %.*s\n", to_string(level),
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

LogSink& default_log_sink() {
  static LogSink sink;  // magic static: thread-safe init, immortal
  return sink;
}

LogSink& current_log_sink() {
  LogSink* sink = sim::Context::current().log_sink;
  return sink != nullptr ? *sink : default_log_sink();
}

LogLevel log_level() { return current_log_sink().threshold(); }

void set_log_level(LogLevel level) { current_log_sink().set_threshold(level); }

namespace detail {
void log_emit(LogLevel level, const std::string& component,
              const std::string& message) {
  current_log_sink().write(level, component, message);
}
}  // namespace detail

}  // namespace wgtt
