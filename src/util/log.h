// Minimal leveled logger. The simulator runs millions of events; logging is
// compiled in but filtered by a global level so benches stay quiet by default
// while tests can raise verbosity when diagnosing a failure.
#pragma once

#include <sstream>
#include <string>

namespace libra::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global filter level. Thread-safe (atomic).
void set_log_level(LogLevel level);
LogLevel log_level();

/// True when a line at `level` passes the global filter.
inline bool log_enabled(LogLevel level) { return level >= log_level(); }

/// Writes one formatted line to stderr if `level` passes the filter.
void log_line(LogLevel level, const std::string& msg);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

/// Turns a `LogStream << ...` chain into a void expression, so LIBRA_LOG can
/// be the last operand of a conditional. `&` binds looser than `<<`.
struct LogVoidify {
  void operator&(const LogStream&) const {}
};
}  // namespace detail

}  // namespace libra::util

// The level test runs before the stream exists: a filtered line neither
// constructs its ostringstream nor evaluates its operands. The whole macro is
// one expression, so `if (c) LIBRA_DEBUG() << x; else y();` keeps its else.
// It cannot be parenthesized: the caller's `<<` operands must join the
// stream inside the conditional's last operand.
// NOLINTBEGIN(bugprone-macro-parentheses)
#define LIBRA_LOG(level)                      \
  !::libra::util::log_enabled(level)          \
      ? (void)0                               \
      : ::libra::util::detail::LogVoidify() & \
            ::libra::util::detail::LogStream(level)
// NOLINTEND(bugprone-macro-parentheses)
#define LIBRA_DEBUG() LIBRA_LOG(::libra::util::LogLevel::kDebug)
#define LIBRA_INFO() LIBRA_LOG(::libra::util::LogLevel::kInfo)
#define LIBRA_WARN() LIBRA_LOG(::libra::util::LogLevel::kWarn)
#define LIBRA_ERROR() LIBRA_LOG(::libra::util::LogLevel::kError)
