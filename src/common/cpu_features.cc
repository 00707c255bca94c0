// Copyright 2026 TGCRN Reproduction Authors
#include "common/cpu_features.h"

#include <atomic>

#include "common/check.h"
#include "common/env.h"

namespace tgcrn {
namespace common {
namespace {

// -1 = not yet resolved; otherwise a SimdIsa value. A relaxed atomic is
// enough: resolution is idempotent and every kernel entry point reads it
// with a single relaxed load.
std::atomic<int> g_active_isa{-1};

SimdIsa ResolveFromEnv() {
  // Fail-closed, unlike other knobs: a wrong ISA breaks the seed-bit contract.
  const std::optional<std::string> env = EnvString("TGCRN_ISA");
  if (!env || *env == "auto") {
    return (Avx2CompiledIn() && CpuSupportsAvx2()) ? SimdIsa::kAvx2
                                                   : SimdIsa::kScalar;
  }
  if (*env == "scalar") return SimdIsa::kScalar;
  if (*env == "avx2") {
    TGCRN_CHECK(Avx2CompiledIn())
        << "TGCRN_ISA=avx2 but the AVX2 kernels were compiled out "
           "(TGCRN_DISABLE_AVX2 or non-x86 build)";
    TGCRN_CHECK(CpuSupportsAvx2())
        << "TGCRN_ISA=avx2 but this CPU does not report AVX2+FMA";
    return SimdIsa::kAvx2;
  }
  TGCRN_CHECK(false) << "unknown TGCRN_ISA value '" << *env
                     << "' (want scalar|avx2|auto)";
  return SimdIsa::kScalar;  // unreachable
}

}  // namespace

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool Avx2CompiledIn() {
#if defined(TGCRN_DISABLE_AVX2) || !(defined(__x86_64__) || defined(_M_X64))
  return false;
#else
  return true;
#endif
}

SimdIsa ActiveSimdIsa() {
  int isa = g_active_isa.load(std::memory_order_relaxed);
  if (isa < 0) {
    isa = static_cast<int>(ResolveFromEnv());
    g_active_isa.store(isa, std::memory_order_relaxed);
  }
  return static_cast<SimdIsa>(isa);
}

void SetSimdIsa(SimdIsa isa) {
  if (isa == SimdIsa::kAvx2) {
    TGCRN_CHECK(Avx2CompiledIn() && CpuSupportsAvx2())
        << "SetSimdIsa(kAvx2) on a machine/build without AVX2+FMA";
  }
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void ResetSimdIsaFromEnv() {
  g_active_isa.store(static_cast<int>(ResolveFromEnv()),
                     std::memory_order_relaxed);
}

const char* SimdIsaName(SimdIsa isa) {
  return isa == SimdIsa::kAvx2 ? "avx2" : "scalar";
}

}  // namespace common
}  // namespace tgcrn
