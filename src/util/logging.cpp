#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dinfomap::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
Mutex g_mutex;  // serializes stderr interleaving and guards the sink
LogSink g_sink DI_GUARDED_BY(g_mutex);
thread_local int t_rank = -1;

const char* tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

using Clock = std::chrono::steady_clock;

Clock::time_point log_epoch() {
  static const Clock::time_point start = Clock::now();
  return start;
}
// Starts the log clock during static initialisation, so a line's stamp is
// time since process start, not since the first line logged. (The
// function-local static keeps any earlier static initialiser that logs safe.)
[[maybe_unused]] const Clock::time_point g_epoch = log_epoch();

double seconds_since_start() {
  return std::chrono::duration<double>(Clock::now() - log_epoch()).count();
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_sink(LogSink sink) {
  MutexLock lock(g_mutex);
  g_sink = std::move(sink);
}

void set_thread_rank(int rank) { t_rank = rank; }

int thread_rank() { return t_rank; }

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  MutexLock lock(g_mutex);
  if (g_sink) {
    g_sink(level, message);
    return;
  }
  if (t_rank >= 0) {
    std::fprintf(stderr, "[%8.3f] [r%d] %s %s\n", seconds_since_start(),
                 t_rank, tag(level), message.c_str());
  } else {
    std::fprintf(stderr, "[%8.3f] %s %s\n", seconds_since_start(), tag(level),
                 message.c_str());
  }
}

}  // namespace dinfomap::util
