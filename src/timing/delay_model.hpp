// Voltage-dependent delay scaling.
//
// First-order model used throughout the literature on FPGA voltage
// sensors: gate delay grows (approximately linearly, for the small
// excursions a PDN produces) as the supply voltage drops below nominal:
//
//   d(V) = d0 * (1 + k * (Vnom - V))
//
// Because *every* gate scales by the same factor, an entire transition
// waveform computed at nominal voltage stretches uniformly — which is why
// capture under voltage V is equivalent to sampling the nominal waveform
// at the "effective time" T / factor(V).
#pragma once

namespace slm::timing {

struct VoltageDelayModel {
  double vnom = 1.0;                 ///< nominal supply (V)
  double sensitivity_per_volt = 1.5; ///< k: fractional delay increase per V

  /// Clamp floor of factor().
  static constexpr double kMinFactor = 0.05;

  /// Delay scale factor at supply voltage v (clamped to stay physical).
  double factor(double v) const {
    const double f = 1.0 + sensitivity_per_volt * (vnom - v);
    return f < kMinFactor ? kMinFactor : f;
  }

  /// Voltage that yields the given delay factor (inverse of factor()).
  double voltage_for_factor(double f) const {
    return vnom - (f - 1.0) / sensitivity_per_volt;
  }

  bool operator==(const VoltageDelayModel&) const = default;
};

}  // namespace slm::timing
