// Copyright 2026 TGCRN Reproduction Authors
// The shared TGCRN_* reader (common/env.h): every value kind accepts its
// documented form, and every bad value warns once and yields the caller's
// default. The call-site cases pin values the per-module parsers used to
// get wrong.
#include "common/env.h"

#include <cstdlib>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/trainer.h"
#include "obs/health.h"
#include "serve/session.h"
#include "tensor/buffer_pool.h"

namespace tgcrn {
namespace {

using common::EnvBool;
using common::EnvChoice;
using common::EnvInt;
using common::EnvString;

// Sets (or, with nullptr, unsets) one variable for a scope and restores
// its previous state afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      setenv(name, value, /*overwrite=*/1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Runs `read` and returns what it wrote to stderr.
template <typename Fn>
std::string CaptureStderrOf(Fn read) {
  testing::internal::CaptureStderr();
  read();
  return testing::internal::GetCapturedStderr();
}

// The former ThreadPoolTest.ParseNumThreadsIsStrict cases, on the shared
// integer parser with the TGCRN_NUM_THREADS range (0 stands for "invalid",
// as ParseNumThreads returned).
int64_t ParseThreads(const char* value) {
  return common::ParseInt(value, 1, common::kMaxNumThreads).value_or(0);
}

TEST(EnvTest, ParseIntIsStrict) {
  EXPECT_EQ(ParseThreads("4"), 4);
  EXPECT_EQ(ParseThreads("1"), 1);
  EXPECT_EQ(ParseThreads("1024"), common::kMaxNumThreads);
  EXPECT_EQ(ParseThreads("4x"), 0);
  EXPECT_EQ(ParseThreads("abc"), 0);
  EXPECT_EQ(ParseThreads(""), 0);
  EXPECT_EQ(ParseThreads("0"), 0);
  EXPECT_EQ(ParseThreads("-2"), 0);
  EXPECT_EQ(ParseThreads("1025"), 0);
  EXPECT_EQ(ParseThreads("2.5"), 0);
  EXPECT_EQ(ParseThreads("99999999999999999999"), 0);
  EXPECT_EQ(ParseThreads(nullptr), 0);
}

// The numeric CLI flags (--lr, --rate, percentages, --interval) parse
// through the same full-consume rule.
TEST(EnvTest, ParseDoubleIsStrict) {
  using common::ParseDouble;
  EXPECT_EQ(ParseDouble("2.5", 0.0, 10.0), 2.5);
  EXPECT_EQ(ParseDouble("-1", -1.0, 10.0), -1.0);
  EXPECT_EQ(ParseDouble("3e-3", 0.0, 1.0), 3e-3);
  EXPECT_EQ(ParseDouble("10", 0.0, 10.0), 10.0);
  EXPECT_FALSE(ParseDouble("", 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble(nullptr, 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble("1e", 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble("nan", -1e300, 1e300).has_value());
  EXPECT_FALSE(ParseDouble("inf", -1e300, 1e300).has_value());
  EXPECT_FALSE(ParseDouble("-inf", -1e300, 1e300).has_value());
  EXPECT_FALSE(ParseDouble("2x", 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble("abc", 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble("10.5", 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble("-0.5", 0.0, 10.0).has_value());
  EXPECT_FALSE(ParseDouble("1e999", 0.0, 1e300).has_value());
}

TEST(EnvTest, StringTreatsEmptyAsUnset) {
  {
    ScopedEnv env("TGCRN_TEST_PATH", nullptr);
    EXPECT_FALSE(EnvString("TGCRN_TEST_PATH").has_value());
  }
  {
    ScopedEnv env("TGCRN_TEST_PATH", "");
    EXPECT_FALSE(EnvString("TGCRN_TEST_PATH").has_value());
  }
  ScopedEnv env("TGCRN_TEST_PATH", "/tmp/out.json");
  EXPECT_EQ(EnvString("TGCRN_TEST_PATH").value_or(""), "/tmp/out.json");
}

TEST(EnvTest, BoolAcceptsExactlyZeroOrOne) {
  {
    ScopedEnv env("TGCRN_TEST_BOOL", "1");
    EXPECT_TRUE(EnvBool("TGCRN_TEST_BOOL", false));
  }
  {
    ScopedEnv env("TGCRN_TEST_BOOL", "0");
    EXPECT_FALSE(EnvBool("TGCRN_TEST_BOOL", true));
  }
  {
    ScopedEnv env("TGCRN_TEST_BOOL", "");
    EXPECT_TRUE(EnvBool("TGCRN_TEST_BOOL", true));
    EXPECT_FALSE(EnvBool("TGCRN_TEST_BOOL", false));
  }
  ScopedEnv env("TGCRN_TEST_BOOL", "true");
  bool value = true;
  const std::string log =
      CaptureStderrOf([&] { value = EnvBool("TGCRN_TEST_BOOL", false); });
  EXPECT_FALSE(value);
  EXPECT_NE(log.find("TGCRN_TEST_BOOL='true' (want 0|1); using the default"),
            std::string::npos)
      << log;
}

TEST(EnvTest, IntMustParseWholeAndFallInRange) {
  {
    ScopedEnv env("TGCRN_TEST_INT", "7");
    EXPECT_EQ(EnvInt("TGCRN_TEST_INT", 0, 10, 3), 7);
  }
  {
    ScopedEnv env("TGCRN_TEST_INT", "");
    const std::string log = CaptureStderrOf(
        [] { EXPECT_EQ(EnvInt("TGCRN_TEST_INT", 0, 10, 3), 3); });
    EXPECT_EQ(log, "");
  }
  {
    ScopedEnv env("TGCRN_TEST_INT", "8x");
    const std::string log = CaptureStderrOf(
        [] { EXPECT_EQ(EnvInt("TGCRN_TEST_INT", 0, 10, 3), 3); });
    EXPECT_NE(log.find("TGCRN_TEST_INT='8x' (want an integer in [0, 10]); "
                       "using the default"),
              std::string::npos)
        << log;
  }
  ScopedEnv env("TGCRN_TEST_INT", "11");
  const std::string log = CaptureStderrOf(
      [] { EXPECT_EQ(EnvInt("TGCRN_TEST_INT", 0, 10, 3), 3); });
  EXPECT_NE(log.find("TGCRN_TEST_INT='11'"), std::string::npos) << log;
}

TEST(EnvTest, ChoiceMatchesAnyCase) {
  {
    ScopedEnv env("TGCRN_TEST_CHOICE", "QUICK");
    EXPECT_EQ(EnvChoice("TGCRN_TEST_CHOICE", {"default", "quick", "full"}, 0),
              1);
  }
  {
    ScopedEnv env("TGCRN_TEST_CHOICE", "");
    EXPECT_EQ(EnvChoice("TGCRN_TEST_CHOICE", {"default", "quick", "full"}, 2),
              2);
  }
  ScopedEnv env("TGCRN_TEST_CHOICE", "fast");
  int value = -1;
  const std::string log = CaptureStderrOf([&] {
    value = EnvChoice("TGCRN_TEST_CHOICE", {"default", "quick", "full"}, 0);
  });
  EXPECT_EQ(value, 0);
  EXPECT_NE(log.find("TGCRN_TEST_CHOICE='fast' (want default|quick|full); "
                     "using the default"),
            std::string::npos)
      << log;
}

TEST(EnvTest, WarnsOncePerVariableAndValue) {
  ScopedEnv env("TGCRN_TEST_ONCE", "bad");
  const std::string first =
      CaptureStderrOf([] { EnvInt("TGCRN_TEST_ONCE", 0, 1, 0); });
  const std::string second =
      CaptureStderrOf([] { EnvInt("TGCRN_TEST_ONCE", 0, 1, 0); });
  EXPECT_NE(first.find("TGCRN_TEST_ONCE='bad'"), std::string::npos) << first;
  EXPECT_EQ(second, "");
  setenv("TGCRN_TEST_ONCE", "worse", /*overwrite=*/1);
  const std::string third =
      CaptureStderrOf([] { EnvInt("TGCRN_TEST_ONCE", 0, 1, 0); });
  EXPECT_NE(third.find("TGCRN_TEST_ONCE='worse'"), std::string::npos)
      << third;
}

// ------------------------------------------------------- Call sites --

// docs/API.md documents lowercase levels; they used to be ignored.
TEST(EnvTest, LowercaseLogLevelSilencesInfo) {
  const LogLevel saved = GetMinLogLevel();
  ScopedEnv env("TGCRN_LOG_LEVEL", "warning");
  SetMinLogLevel(internal::LogLevelFromEnv());
  const std::string log = CaptureStderrOf([] {
    TGCRN_LOG(Info) << "info-line";
    TGCRN_LOG(Warning) << "warning-line";
  });
  SetMinLogLevel(saved);
  EXPECT_EQ(log.find("info-line"), std::string::npos) << log;
  EXPECT_NE(log.find("warning-line"), std::string::npos) << log;
}

TEST(EnvTest, UnknownLogLevelIsReportedAndKeepsInfo) {
  ScopedEnv env("TGCRN_LOG_LEVEL", "loud");
  LogLevel level = LogLevel::kError;
  const std::string log =
      CaptureStderrOf([&] { level = internal::LogLevelFromEnv(); });
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_NE(log.find("TGCRN_LOG_LEVEL='loud'"), std::string::npos) << log;
}

// "abc" used to parse as 0, which silently forced the dense model.
TEST(EnvTest, InvalidGraphTopKLeavesModelSetting) {
  {
    ScopedEnv env("TGCRN_GRAPH_TOPK", "abc");
    EXPECT_EQ(core::TrainConfig().graph_topk, -1);
  }
  {
    ScopedEnv env("TGCRN_GRAPH_TOPK", "0");
    EXPECT_EQ(core::TrainConfig().graph_topk, 0);
  }
  ScopedEnv env("TGCRN_GRAPH_TOPK", "16");
  EXPECT_EQ(core::TrainConfig().graph_topk, 16);
}

// "8x" used to parse as 8.
TEST(EnvTest, ServeBatchMaxMustParseWhole) {
  {
    ScopedEnv env("TGCRN_SERVE_BATCH_MAX", "8x");
    EXPECT_EQ(serve::SessionConfig::FromEnv().batch_max, 32);
  }
  ScopedEnv env("TGCRN_SERVE_BATCH_MAX", "8");
  EXPECT_EQ(serve::SessionConfig::FromEnv().batch_max, 8);
}

// Values above the range used to be taken as is (and could overflow the
// byte count).
TEST(EnvTest, TensorPoolMaxMbAboveRangeKeepsDefault) {
  constexpr int64_t kMiB = 1 << 20;
  {
    ScopedEnv env("TGCRN_TENSOR_POOL_MAX_MB", "2000000");
    EXPECT_EQ(TensorPoolMaxRetainedBytesFromEnv(), 512 * kMiB);
  }
  {
    ScopedEnv env("TGCRN_TENSOR_POOL_MAX_MB", "10000000000000");
    EXPECT_EQ(TensorPoolMaxRetainedBytesFromEnv(), 512 * kMiB);
  }
  ScopedEnv env("TGCRN_TENSOR_POOL_MAX_MB", "64");
  EXPECT_EQ(TensorPoolMaxRetainedBytesFromEnv(), 64 * kMiB);
}

// Both bools now share one dialect: "true" is invalid rather than on, and
// an empty value means unset rather than on.
TEST(EnvTest, BoolKnobsShareOneDialect) {
  {
    ScopedEnv env("TGCRN_HEALTH", "true");
    EXPECT_FALSE(obs::HealthOptions::FromEnv().enabled);
  }
  TensorBufferPool& pool = TensorBufferPool::Global();
  {
    ScopedEnv env("TGCRN_TENSOR_POOL", "");
    pool.SetEnabled(false);
    pool.ReloadEnabledFromEnv();
    EXPECT_TRUE(pool.enabled());
  }
  pool.ReloadEnabledFromEnv();
}

// TGCRN_ISA stays fail-closed: no case folding, no fallback.
TEST(EnvTest, UnknownIsaStillAborts) {
  EXPECT_DEATH(
      {
        setenv("TGCRN_ISA", "SCALAR", /*overwrite=*/1);
        common::ResetSimdIsaFromEnv();
      },
      "unknown TGCRN_ISA value 'SCALAR'");
}

}  // namespace
}  // namespace tgcrn
