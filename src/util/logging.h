// Minimal leveled logging, thread-isolatable per simulation.
//
// Messages flow through a LogSink.  Which sink receives a message is decided
// by the calling thread's simulation context (sim::Context::log_sink), so
// concurrent simulations on different threads each log through their own
// sink without touching any shared mutable state.  When the context holds no
// sink, messages fall back to the process-wide default sink, whose
// threshold is a std::atomic so the WGTT_LOG fast path stays a relaxed load.
//
// Off by default so benchmark runs stay quiet; tests and examples can turn
// on per-component tracing with set_log_level(), or capture output with a
// CapturingLogSink installed via sim::ScopedContext.
#pragma once

#include <atomic>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace wgtt {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

const char* to_string(LogLevel level);

/// Destination for log messages.  The base class writes to stderr; override
/// write() to capture messages elsewhere.  The threshold is atomic so one
/// thread may adjust it while another is inside the WGTT_LOG fast path.
class LogSink {
 public:
  explicit LogSink(LogLevel threshold = LogLevel::kOff)
      : threshold_(threshold) {}
  virtual ~LogSink() = default;
  LogSink(const LogSink&) = delete;
  LogSink& operator=(const LogSink&) = delete;

  LogLevel threshold() const {
    return threshold_.load(std::memory_order_relaxed);
  }
  void set_threshold(LogLevel level) {
    threshold_.store(level, std::memory_order_relaxed);
  }

  virtual void write(LogLevel level, std::string_view component,
                     std::string_view message);

 private:
  std::atomic<LogLevel> threshold_;
};

/// Sink that records messages in memory; for tests and per-sim capture.
/// Not internally synchronized: each simulation owns its sink and runs on
/// one thread at a time.
class CapturingLogSink : public LogSink {
 public:
  struct Entry {
    LogLevel level;
    std::string component;
    std::string message;
  };

  explicit CapturingLogSink(LogLevel threshold = LogLevel::kTrace)
      : LogSink(threshold) {}

  void write(LogLevel level, std::string_view component,
             std::string_view message) override {
    entries_.push_back(Entry{level, std::string(component),
                             std::string(message)});
  }

  const std::vector<Entry>& entries() const { return entries_; }
  void clear() { entries_.clear(); }

 private:
  std::vector<Entry> entries_;
};

/// The process-wide fallback sink (writes to stderr).
LogSink& default_log_sink();

/// The sink WGTT_LOG currently routes to on this thread: the simulation
/// context's log sink, or the default sink when the context has none.
LogSink& current_log_sink();

/// Threshold of the calling thread's current sink; messages below it are
/// discarded cheaply (a thread-local read plus a relaxed atomic load).
LogLevel log_level();

/// Set the threshold of the calling thread's current sink.  With no sink in
/// the context this adjusts the process-wide default, preserving the
/// historical "global log level" behaviour.
void set_log_level(LogLevel level);

namespace detail {
void log_emit(LogLevel level, const std::string& component,
              const std::string& message);
}

/// Usage: WGTT_LOG(kDebug, "mac", "retry " << n << " for seq " << s);
#define WGTT_LOG(level, component, expr)                                \
  do {                                                                  \
    if (::wgtt::LogLevel::level >= ::wgtt::log_level()) {               \
      std::ostringstream wgtt_log_oss;                                  \
      wgtt_log_oss << expr;                                             \
      ::wgtt::detail::log_emit(::wgtt::LogLevel::level, (component),    \
                               wgtt_log_oss.str());                     \
    }                                                                   \
  } while (0)

}  // namespace wgtt
