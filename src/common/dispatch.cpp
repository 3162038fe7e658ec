#include "common/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"

namespace slm {

namespace {

// SLM_SIMD parse. Unset or "auto" means pick the best the CPU supports;
// any value that neither names a level nor parses as nonzero keeps the
// historical atoi semantics and lands on scalar.
DispatchLevel resolve_from_env() {
  const char* env = std::getenv("SLM_SIMD");
  if (env == nullptr) return detect_dispatch();
  if (std::strcmp(env, "auto") == 0) return detect_dispatch();
  if (std::strcmp(env, "scalar") == 0) return DispatchLevel::kScalar;
  if (std::strcmp(env, "sse2") == 0) {
    SLM_REQUIRE(detect_dispatch() >= DispatchLevel::kSse2,
                "SLM_SIMD=sse2 requested but this CPU has no SSE2 kernels");
    return DispatchLevel::kSse2;
  }
  if (std::strcmp(env, "avx2") == 0) {
    SLM_REQUIRE(detect_dispatch() >= DispatchLevel::kAvx2,
                "SLM_SIMD=avx2 requested but this CPU has no AVX2");
    return DispatchLevel::kAvx2;
  }
  return std::atoi(env) != 0 ? detect_dispatch() : DispatchLevel::kScalar;
}

std::atomic<int> g_forced{-1};

}  // namespace

const char* dispatch_level_name(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kSse2:
      return "sse2";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

DispatchLevel detect_dispatch() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAvx2;
  return DispatchLevel::kSse2;  // baseline on x86-64
#else
  return DispatchLevel::kScalar;
#endif
}

DispatchLevel active_dispatch() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<DispatchLevel>(forced);
  static const DispatchLevel resolved = resolve_from_env();
  return resolved;
}

void force_dispatch_for_testing(DispatchLevel level) {
  SLM_REQUIRE(level <= detect_dispatch(),
              std::string("dispatch level ") + dispatch_level_name(level) +
                  " requested but this CPU cannot run it");
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void clear_forced_dispatch_for_testing() {
  g_forced.store(-1, std::memory_order_relaxed);
}

}  // namespace slm
