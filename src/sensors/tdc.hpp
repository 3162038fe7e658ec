// Time-to-Digital Converter voltage sensor — the *conspicuous* baseline
// the paper compares against (Fig. 6, 9, 11).
//
// A signal races down a carry-chain delay line for a fixed window W; the
// number of stages it traverses is inversely proportional to the
// (voltage-dependent) stage delay:
//
//   N(V) = W / (tau0 * factor(V))
//
// The registered outputs form a thermometer code. Lower voltage -> slower
// stages -> smaller reading.
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "timing/delay_model.hpp"

namespace slm::sensors {

struct TdcConfig {
  std::size_t stages = 64;
  double stage_delay_ns = 0.052;  ///< tau0 at nominal voltage
  /// Sampling window (ns). Default = 32 stages at nominal, putting the
  /// idle reading mid-scale as in the paper (idle ~30 of 64).
  double window_ns = 32 * 0.052;
  timing::VoltageDelayModel delay;

  /// Analog noise on the propagation depth (LSB sigma): launch jitter,
  /// stage mismatch. Applied to the continuous depth before quantising.
  double noise_lsb = 0.25;

  bool operator==(const TdcConfig&) const = default;
};

class TdcSensor {
 public:
  explicit TdcSensor(const TdcConfig& cfg);

  /// Continuous (pre-quantisation) propagation depth at voltage v.
  double depth(double v) const;

  /// Quantised reading (stages traversed), with noise.
  std::uint32_t sample(double v, Xoshiro256& rng) const;

  /// sample() from a caller-drawn standard normal z: the noisy depth is
  /// depth(v) + (0.0 + noise_lsb * z), the expression sample() and
  /// sample_bit() evaluate on their own draw. Capture blocks draw every
  /// lane's normals up front and read the sensor through these.
  std::uint32_t sample_from_draw(double v, double z) const;

  /// Full thermometer word, with noise (bit i set iff depth > i).
  BitVec sample_word(double v, Xoshiro256& rng) const;

  /// Single thermometer bit i — the Fig. 11 attack mode.
  bool sample_bit(std::size_t i, double v, Xoshiro256& rng) const;

  /// sample_bit() from a caller-drawn standard normal z.
  bool sample_bit_from_draw(std::size_t i, double v, double z) const;

  /// Depth at nominal voltage (the idle reading).
  double idle_depth() const;

  const TdcConfig& config() const { return cfg_; }

 private:
  double noisy_depth(double v, double z) const {
    return depth(v) + (0.0 + cfg_.noise_lsb * z);
  }

  TdcConfig cfg_;
};

}  // namespace slm::sensors
