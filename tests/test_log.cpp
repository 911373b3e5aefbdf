#include <gtest/gtest.h>

#include "util/log.h"

namespace libra::util {
namespace {

/// Sets the global log level for one test and restores it afterwards.
class ScopedLogLevel {
 public:
  explicit ScopedLogLevel(LogLevel level) : saved_(log_level()) {
    set_log_level(level);
  }
  ~ScopedLogLevel() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(LogMacro, FilteredLineEvaluatesNoOperand) {
  int calls = 0;
  auto f = [&calls] { return ++calls; };
  {
    const ScopedLogLevel level(LogLevel::kWarn);  // the default
    LIBRA_DEBUG() << f();
    EXPECT_EQ(calls, 0);
  }
  {
    const ScopedLogLevel level(LogLevel::kDebug);
    LIBRA_DEBUG() << f();
    EXPECT_EQ(calls, 1);
  }
}

TEST(LogMacro, ElseBindsToTheEnclosingIf) {
  for (const LogLevel level : {LogLevel::kWarn, LogLevel::kDebug}) {
    const ScopedLogLevel scoped(level);
    bool took_else = false;
    for (const bool c : {false, true}) {
      took_else = false;
      if (c)
        LIBRA_DEBUG() << "taken";
      else
        took_else = true;
      EXPECT_EQ(took_else, !c) << "c=" << c;
    }
  }
}

}  // namespace
}  // namespace libra::util
