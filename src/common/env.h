// Copyright 2026 TGCRN Reproduction Authors
// The one reader of TGCRN_* environment variables (DESIGN §5). Modules keep
// their own FromEnv and defaults; only the parsing lives here. Unset and
// empty both mean unset. A bad value of any kind logs one warning per
// (variable, value) naming the variable, the value and the accepted form,
// and yields the caller's `fallback`.
#ifndef TGCRN_COMMON_ENV_H_
#define TGCRN_COMMON_ENV_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

namespace tgcrn {
namespace common {

// A whole decimal integer in [lo, hi]; nullopt for anything else (null,
// empty, trailing characters, overflow, out of range).
std::optional<int64_t> ParseInt(const char* value, int64_t lo, int64_t hi);
// A whole finite decimal number in [lo, hi]; nullopt for anything else
// (null, empty, trailing characters, nan, inf, overflow, out of range).
std::optional<double> ParseDouble(const char* value, double lo, double hi);

// A string or path; nullopt when unset or empty.
std::optional<std::string> EnvString(const char* name);
// Exactly "0" or "1".
bool EnvBool(const char* name, bool fallback);
// A whole decimal integer in [lo, hi].
int64_t EnvInt(const char* name, int64_t lo, int64_t hi, int64_t fallback);
// The index of the value in `choices`, matched in any case; `fallback` is
// an index too.
int EnvChoice(const char* name, std::initializer_list<const char*> choices,
              int fallback);

}  // namespace common
}  // namespace tgcrn

#endif  // TGCRN_COMMON_ENV_H_
