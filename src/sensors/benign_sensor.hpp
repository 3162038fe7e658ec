// BenignSensor — the paper's contribution.
//
// Takes an ordinary, functionally-meaningful circuit (its netlist), a
// (reset, measure) stimulus pair, and an overclocked capture clock. The
// reset vector settles the circuit to a known state; the measure vector
// launches transitions down the long paths; the capture at the next
// overclocked edge freezes each endpoint mid-flight. Which endpoints have
// toggled relative to the reset state depends on the momentary supply
// voltage — turning the circuit into an improvised voltage sensor without
// adding a single gate.
//
// The heavy lifting (one event-driven timing simulation of the stimulus
// transition) happens once in the constructor; per-sample cost is a
// handful of binary searches.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "netlist/netlist.hpp"
#include "timing/capture.hpp"
#include "timing/compiled_capture.hpp"
#include "timing/timed_sim.hpp"

namespace slm::sensors {

struct BenignSensorConfig {
  timing::CaptureConfig capture;
  std::uint64_t seed = 0x5eed;  ///< fixes per-endpoint static skew
};

class BenignSensor {
 public:
  /// `reset_stimulus` / `measure_stimulus` are full input vectors of the
  /// circuit (one bit per primary input, declaration order).
  BenignSensor(const netlist::Netlist& nl, const BitVec& reset_stimulus,
               const BitVec& measure_stimulus, const BenignSensorConfig& cfg);

  std::size_t endpoint_count() const { return capture_->endpoint_count(); }

  /// Raw captured endpoint word at supply voltage v.
  BitVec sample_raw(double v, Xoshiro256& rng) const {
    return capture_->sample(v, rng);
  }

  /// Toggle word: captured XOR reset-cycle values. This is the sensor
  /// output the paper post-processes.
  BitVec sample_toggles(double v, Xoshiro256& rng) const {
    return capture_->toggled(capture_->sample(v, rng));
  }

  /// Single endpoint toggle — the "single critical path" attack mode.
  bool sample_toggle_bit(std::size_t i, double v, Xoshiro256& rng) const;

  /// Hamming weight of the toggle word restricted to `bits` — the
  /// campaign hot path (only the bits of interest are simulated).
  std::size_t sample_toggle_hw(const std::vector<std::size_t>& bits, double v,
                               Xoshiro256& rng) const;

  /// Deterministically sensitive endpoints over a voltage range.
  std::vector<std::size_t> sensitive_endpoints(double v_lo,
                                               double v_hi) const {
    return capture_->sensitive_endpoints(v_lo, v_hi);
  }

  const timing::OverclockedCapture& capture() const { return *capture_; }

  /// The compiled fast-path kernel over the same physics (bit-exact; see
  /// timing/compiled_capture.hpp).
  const timing::CompiledCapture& compiled() const { return *compiled_; }

  const timing::TimedSimResult& transition() const { return transition_; }

  /// Settle time (ns, nominal voltage) of the slowest endpoint — must
  /// exceed the capture period or the circuit is not overclocked at all.
  double max_settle_time_ns() const;

 private:
  timing::TimedSimResult transition_;
  std::unique_ptr<timing::OverclockedCapture> capture_;
  std::unique_ptr<timing::CompiledCapture> compiled_;
};

/// Several sensor instances observed as one concatenated word (the paper
/// uses two C6288 multipliers this way). Instances get decorrelated
/// static skews via distinct seeds.
class BenignSensorBank {
 public:
  BenignSensorBank() = default;

  void add(std::shared_ptr<const BenignSensor> sensor);

  std::size_t instance_count() const { return sensors_.size(); }
  std::size_t endpoint_count() const;

  /// Concatenated toggle word (instance 0's endpoints first).
  BitVec sample_toggles(double v, Xoshiro256& rng) const;

  /// Toggle bit by global index across the concatenation.
  bool sample_toggle_bit(std::size_t global_i, double v,
                         Xoshiro256& rng) const;

  /// Hamming weight of the concatenated toggle word restricted to global
  /// bit indices (sorted or not).
  std::size_t sample_toggle_hw(const std::vector<std::size_t>& global_bits,
                               double v, Xoshiro256& rng) const;

  const BenignSensor& instance(std::size_t i) const;

  // --- Compiled batched fast path --------------------------------------
  //
  // Plans pre-split global bit indices per instance once; the batch
  // kernels then process a whole voltage vector with one FastNormal::fill
  // over a reused scratch block. RNG consumption (count and order) is
  // identical to the per-call APIs above — including skipping instances
  // with no listed bit — so readings are bit-exact against them.

  /// Per-instance slice of a global bit list, packed into self-contained
  /// kernel buffers (timing::PackedToggleSubset). Instances with no
  /// listed bit are omitted and draw nothing, as in sample_toggle_hw.
  struct CompiledHwPlan {
    struct Part {
      timing::PackedToggleSubset packed;
      std::vector<std::uint32_t> idx;  ///< local endpoint indices
    };
    std::vector<Part> parts;
    std::size_t draws_per_sample = 0;  ///< sum over parts of 1 + idx size
    bool uniform_clock = false;  ///< all parts share one capture clock
  };
  CompiledHwPlan compile_hw_plan(
      const std::vector<std::size_t>& global_bits) const;

  /// Batched sample_toggle_hw: y[j] = HW over the planned bits at v[j].
  void toggle_hw_batch(const CompiledHwPlan& plan, const double* v,
                       std::size_t n, Xoshiro256& rng, double* y) const;

  /// Pure-compute half of toggle_hw_batch over pre-drawn normals: lane l
  /// (a whole trace-block worth of samples) reads voltage v[l] and the
  /// draw slice z[l * draws_per_sample ...] — exactly the layout one
  /// FastNormal::fill per trace produces when traces are packed
  /// back-to-back. `simd = false` forces the per-lane scalar reference
  /// loop (the SLM_SIMD=0 fallback); both paths are bit-exact against
  /// toggle_hw_batch on the same draws, which the sensor property suite
  /// enforces.
  void toggle_hw_block(const CompiledHwPlan& plan, const double* v,
                       std::size_t lanes, const double* z, double* y,
                       bool simd = true) const;

  /// Owning instance + local index of one global bit.
  struct CompiledBitPlan {
    const timing::CompiledCapture* cap = nullptr;
    std::size_t local = 0;
  };
  CompiledBitPlan compile_bit_plan(std::size_t global_i) const;

  /// sample_toggle_bit over pre-drawn normals: y[j] = 0/1 toggle of the
  /// planned bit at v[j], reading the two draws z[2j], z[2j + 1] the
  /// per-call API would take from its stream (common jitter, then the
  /// endpoint's own jitter).
  void toggle_bit_block(const CompiledBitPlan& plan, const double* v,
                        std::size_t n, const double* z, double* y) const;

  /// Batched selection pre-pass kernel: for every sample j, add each
  /// global endpoint's toggle bit into ones[0..endpoint_count()).
  /// Equivalent to n sample_toggles() calls fed to BitSelector::add.
  void toggle_accumulate_batch(const double* v, std::size_t n,
                               Xoshiro256& rng, std::size_t* ones) const;

 private:
  std::vector<std::shared_ptr<const BenignSensor>> sensors_;
};

}  // namespace slm::sensors
