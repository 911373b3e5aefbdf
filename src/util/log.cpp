#include "util/log.h"

#include <atomic>
#include <iostream>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace libra::util {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
/// Serializes whole lines onto stderr (the log sink): concurrent monitor /
/// scheduler threads must not interleave characters.
Mutex g_io_mutex;
/// Lines written to the sink so far; guarded state makes the sink's lock
/// discipline checkable by -Wthread-safety.
long g_lines_written LIBRA_GUARDED_BY(g_io_mutex) = 0;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    default:
      return "?";
  }
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void log_line(LogLevel level, const std::string& msg) {
  if (!log_enabled(level)) return;
  MutexLock lock(g_io_mutex);
  std::cerr << "[" << level_name(level) << "] " << msg << "\n";
  ++g_lines_written;
}

}  // namespace libra::util
