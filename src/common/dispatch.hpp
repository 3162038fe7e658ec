// Process-wide SIMD dispatch level, shared by every runtime-dispatched
// kernel family: the integer fold kernels (sca/fold_kernels.hpp) and the
// PDN block matvec (pdn/cycle_response.hpp).
//
// The level is resolved once from the CPU and the SLM_SIMD knob:
//   SLM_SIMD=0 | scalar   force the scalar reference kernels
//   SLM_SIMD=sse2         force the SSE2 kernels
//   SLM_SIMD=avx2         force the AVX2 kernels (refused if the CPU
//                         lacks AVX2)
//   unset / other         auto-detect the best level the CPU supports
// core::resolve_simd reads the same level, so SLM_SIMD=0 also selects
// the scalar capture kernels. Every level is bit-identical to the
// scalar one; the knob exists to isolate miscompiles and measure wins.
#pragma once

namespace slm {

enum class DispatchLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

const char* dispatch_level_name(DispatchLevel level);

/// Best level the running CPU supports.
DispatchLevel detect_dispatch();

/// The process-wide level: SLM_SIMD if set, else detect_dispatch().
/// Resolved once on first use.
DispatchLevel active_dispatch();

/// Test hook: override active_dispatch() for the rest of the process
/// (or until cleared). Lets one test binary exercise every level
/// end-to-end without re-execing under a different SLM_SIMD. Forcing a
/// level the CPU cannot run throws.
void force_dispatch_for_testing(DispatchLevel level);
void clear_forced_dispatch_for_testing();

}  // namespace slm
