// Fast linear campaign engine.
//
// The RLC PDN is linear, and a CPA campaign evaluates the *same* current
// template hundreds of thousands of times with only the per-cycle
// amplitudes (the victim's Hamming distances) changing. So we precompute,
// once, the voltage deviation each unit of per-cycle current causes at
// each sensor sampling instant; per trace, the voltage vector is then a
// tiny matrix-vector product instead of a full ODE run.
#pragma once

#include <cstddef>
#include <vector>

#include "common/dispatch.hpp"
#include "pdn/rlc.hpp"

namespace slm::pdn {

class CycleResponseMatrix {
 public:
  /// Empty matrix; fill via build(). Using an empty matrix throws.
  CycleResponseMatrix() = default;

  /// Build by simulation: for each activity cycle c (a rectangular unit
  /// current pulse over [cycle_start[c], cycle_start[c] + cycle_len_ns)),
  /// run the PDN and record the voltage *deviation from DC* at each
  /// sample instant.
  static CycleResponseMatrix build(const PdnConfig& cfg,
                                   const std::vector<double>& sample_times_ns,
                                   const std::vector<double>& cycle_starts_ns,
                                   double cycle_len_ns);

  std::size_t sample_count() const { return sample_times_.size(); }
  std::size_t cycle_count() const { return cycle_starts_.size(); }

  double dc_voltage() const { return v_dc_; }
  const std::vector<double>& sample_times_ns() const { return sample_times_; }

  /// Voltage at one sample instant for per-cycle currents `i_cycles`
  /// (amps). i_cycles.size() must equal cycle_count().
  double voltage_at(std::size_t sample,
                    const std::vector<double>& i_cycles) const;

  /// All sample voltages at once (appends to `out`, which is resized).
  void voltages(const std::vector<double>& i_cycles,
                std::vector<double>& out) const;

  /// Blocked voltages(): `lanes` traces evaluated at once. Input currents
  /// are cycle-major — lane l's current for cycle c lives at
  /// `ic_t[c * stride + l]` (stride >= lanes) — so the lane-inner loop is
  /// unit-stride; output voltages are lane-major (`out[l * sample_count()
  /// + s]`). Each lane accumulates its per-sample dot product in the same
  /// cycle order as voltages(), so per-lane results are bit-identical to
  /// `lanes` scalar calls; the scalar voltages() chain is latency-bound
  /// (one FP add per cycle, no reassociation), which is exactly what the
  /// lane-parallel form hides. `simd = true` runs the tiles of the
  /// process-wide dispatch level (common/dispatch.hpp); `simd = false`
  /// runs the per-lane scalar loop (same arithmetic, same results).
  void voltages_block(const double* ic_t, std::size_t lanes,
                      std::size_t stride, double* out, bool simd) const;

  /// voltages_block() at an explicit level. kScalar: the per-lane scalar
  /// loop. kSse2: 8-lane tiles (portable code the compiler keeps in SSE2
  /// registers on x86-64), then the scalar loop on the ragged tail.
  /// kAvx2: 32-lane AVX2 tiles (8 ymm accumulators, separate multiply and
  /// add, no FMA), then the 8-lane tiles and the scalar tail. Every level
  /// sums each lane c-ascending from 0.0, so all are bit-identical.
  /// kAvx2 on a CPU without AVX2 throws.
  void voltages_block(const double* ic_t, std::size_t lanes,
                      std::size_t stride, double* out,
                      DispatchLevel level) const;

  /// Raw response entry: dV at `sample` per amp in `cycle`.
  double response(std::size_t sample, std::size_t cycle) const;

 private:
  double v_dc_ = 0.0;
  std::vector<double> sample_times_;
  std::vector<double> cycle_starts_;
  // Row-major [sample][cycle].
  std::vector<double> m_;
};

}  // namespace slm::pdn
