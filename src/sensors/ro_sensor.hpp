// Ring-oscillator counter sensor (Zhao & Suh, S&P'18 style) — included as
// the second conspicuous reference sensor and as an ablation point: its
// asynchronous counting gives a much lower effective bandwidth than a TDC,
// and its combinational loop is what bitstream checkers catch first.
//
//   f_osc(V) = 1 / (2 * n_inv * tau_inv * factor(V))
//   count    = f_osc * window  (+ phase noise)
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "timing/delay_model.hpp"

namespace slm::sensors {

struct RoSensorConfig {
  std::size_t inverter_stages = 5;
  double inverter_delay_ns = 0.065;
  double count_window_ns = 1000.0;  ///< 1 us counting window (low rate)
  timing::VoltageDelayModel delay;
  double phase_noise_counts = 0.6;  ///< sigma of the counter reading

  bool operator==(const RoSensorConfig&) const = default;
};

class RoCounterSensor {
 public:
  explicit RoCounterSensor(const RoSensorConfig& cfg);

  /// Oscillation frequency (MHz) at voltage v.
  double frequency_mhz(double v) const;

  /// Expected count over the window at voltage v.
  double expected_count(double v) const;

  /// Noisy counter reading.
  std::uint32_t sample(double v, Xoshiro256& rng) const;

  /// sample() from a caller-drawn standard normal z: the reading is
  /// expected_count(v) + (0.0 + phase_noise_counts * z), floored at 0.
  std::uint32_t sample_from_draw(double v, double z) const;

  const RoSensorConfig& config() const { return cfg_; }

 private:
  RoSensorConfig cfg_;
};

}  // namespace slm::sensors
