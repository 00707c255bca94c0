// Copyright 2026 TGCRN Reproduction Authors
#include "common/env.h"

#include <strings.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string_view>

#include "common/logging.h"

namespace tgcrn {
namespace common {
namespace {

// Reports that `name`='`value`' is not `want`, once per (name, value).
void WarnInvalid(const char* name, const std::string& value,
                 const std::string& want) {
  static std::mutex mu;
  static auto* seen = new std::set<std::string>();
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen->insert(name + ("=" + value)).second) return;
  }
  const std::string message = std::string("ignoring invalid ") + name +
                              "='" + value + "' (want " + want +
                              "); using the default";
  // The logger reads TGCRN_LOG_LEVEL while initialising its threshold.
  if (std::string_view(name) == "TGCRN_LOG_LEVEL") {
    std::fprintf(stderr, "[W env.cc] %s\n", message.c_str());
  } else {
    TGCRN_LOG(Warning) << message;
  }
}

}  // namespace

std::optional<int64_t> ParseInt(const char* value, int64_t lo, int64_t hi) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (errno != 0 || *end != '\0' || parsed < lo || parsed > hi) {
    return std::nullopt;
  }
  return parsed;
}

std::optional<double> ParseDouble(const char* value, double lo, double hi) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(parsed) || parsed < lo ||
      parsed > hi) {
    return std::nullopt;
  }
  return parsed;
}

std::optional<std::string> EnvString(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return value;
}

bool EnvBool(const char* name, bool fallback) {
  return EnvChoice(name, {"0", "1"}, fallback ? 1 : 0) == 1;
}

int64_t EnvInt(const char* name, int64_t lo, int64_t hi, int64_t fallback) {
  const std::optional<std::string> value = EnvString(name);
  if (!value) return fallback;
  if (const auto parsed = ParseInt(value->c_str(), lo, hi)) return *parsed;
  WarnInvalid(name, *value, "an integer in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  return fallback;
}

int EnvChoice(const char* name, std::initializer_list<const char*> choices,
              int fallback) {
  const std::optional<std::string> value = EnvString(name);
  if (!value) return fallback;
  std::string want;
  int index = 0;
  for (const char* choice : choices) {
    if (strcasecmp(value->c_str(), choice) == 0) return index;
    if (index++ > 0) want += '|';
    want += choice;
  }
  WarnInvalid(name, *value, want);
  return fallback;
}

}  // namespace common
}  // namespace tgcrn
