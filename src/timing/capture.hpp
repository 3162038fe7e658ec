// Overclocked endpoint capture — the physical core of the paper.
//
// A benign circuit is clocked at a period far below its critical delay.
// At each measure cycle, every endpoint register captures the transient
// value of its waveform at the clock edge. Supply voltage rescales the
// time axis (see VoltageDelayModel), so
//
//   captured_i(V) = waveform_i.value_at( T / factor(V) - skew_i + jitter )
//
// Per-endpoint static skew models clock skew + process variation; jitter
// models cycle-to-cycle noise. An endpoint "toggles" when the captured
// value differs from its reset-cycle value (the waveform's initial value).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "timing/delay_model.hpp"
#include "timing/waveform.hpp"

namespace slm::timing {

struct CaptureConfig {
  double clock_period_ns = 1000.0 / 300.0;  ///< 300 MHz overclock
  VoltageDelayModel delay;

  /// Cycle-to-cycle capture jitter (ns, sigma), applied per endpoint and
  /// per sample in the nominal-time domain.
  double jitter_sigma_ns = 0.060;

  /// Common-mode jitter (ns, sigma): one draw per sample shared by every
  /// endpoint — launch-clock jitter plus unmodelled common supply noise.
  /// This is what limits the benefit of averaging many endpoint bits.
  double common_jitter_sigma_ns = 0.120;

  /// Static per-endpoint capture-time offset (ns, sigma), drawn once.
  double endpoint_skew_sigma_ns = 0.080;

  /// Setup time subtracted from the clock period (ns).
  double setup_ns = 0.05;

  bool operator==(const CaptureConfig&) const = default;
};

class OverclockedCapture {
 public:
  /// `endpoints` are the waveforms of one (reset -> measure) transition.
  /// `seed` fixes the static skew draw.
  OverclockedCapture(std::vector<Waveform> endpoints, CaptureConfig cfg,
                     std::uint64_t seed);

  std::size_t endpoint_count() const { return endpoints_.size(); }

  const CaptureConfig& config() const { return cfg_; }
  const std::vector<Waveform>& waveforms() const { return endpoints_; }
  const std::vector<double>& endpoint_skews() const { return skew_; }

  /// Nominal-domain observation instant for supply voltage v.
  double effective_time(double v) const;

  /// Capture the full endpoint word at voltage v (noisy).
  BitVec sample(double v, Xoshiro256& rng) const;

  /// Capture a single endpoint at voltage v (noisy) — the "single path
  /// endpoint" attack mode needs nothing more.
  bool sample_bit(std::size_t i, double v, Xoshiro256& rng) const;

  /// Capture only the listed endpoints (values appear at the same indices
  /// of the returned word; all other bits are 0). One common-jitter draw
  /// is shared, as in sample(). Campaign hot path for bits-of-interest.
  BitVec sample_subset(const std::vector<std::size_t>& bits, double v,
                       Xoshiro256& rng) const;

  /// Reset-cycle values of all endpoints (what a toggle is measured
  /// against).
  BitVec reset_values() const;

  /// toggled = captured XOR reset values.
  BitVec toggled(const BitVec& captured) const;

  /// True if endpoint i can change its captured value somewhere within
  /// the supply range [v_lo, v_hi] (ignoring noise) — the deterministic
  /// notion of "sensitive endpoint" used for floorplans.
  bool endpoint_sensitive(std::size_t i, double v_lo, double v_hi) const;

  /// Indices of all sensitive endpoints for the range.
  std::vector<std::size_t> sensitive_endpoints(double v_lo,
                                               double v_hi) const;

 private:
  std::vector<Waveform> endpoints_;
  CaptureConfig cfg_;
  std::vector<double> skew_;
};

}  // namespace slm::timing
