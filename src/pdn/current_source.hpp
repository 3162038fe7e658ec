// Load-current generators for the PDN: the RO power-waster grid the paper
// uses as a controlled aggressor, plus simple step/pulse sources for
// tests and ablations.
#pragma once

#include <cstddef>
#include <vector>

namespace slm::pdn {

/// The paper's 8000-RO grid, toggled at 4 MHz: within each toggle period
/// the ROs are *gradually* enabled (current ramps linearly from 0 to the
/// full grid current) and then *suddenly* disabled (instant drop). The
/// sudden release excites the PDN resonance — the overshoot in Fig. 6.
struct RoGridConfig {
  std::size_t ro_count = 8000;
  double current_per_ro_a = 0.35e-3;  ///< average draw of one toggling RO
  double toggle_freq_mhz = 4.0;
  double ramp_fraction = 0.85;  ///< fraction of the period spent ramping up

  bool operator==(const RoGridConfig&) const = default;
};

class RoGridAggressor {
 public:
  explicit RoGridAggressor(const RoGridConfig& cfg);

  double max_current_a() const;

  /// Grid current at absolute time t (ns); zero before `enable_at_ns`.
  double current_at(double t_ns, double enable_at_ns) const;

  /// Sampled current sequence over [0, n*dt) with the grid enabled at
  /// `enable_at_ns`.
  std::vector<double> sequence(std::size_t n, double dt_ns,
                               double enable_at_ns) const;

  const RoGridConfig& config() const { return cfg_; }

 private:
  RoGridConfig cfg_;
};

/// Rectangular pulse: `amps` between [start_ns, start_ns + width_ns).
struct PulseSource {
  double amps = 1.0;
  double start_ns = 0.0;
  double width_ns = 10.0;

  double current_at(double t_ns) const {
    return (t_ns >= start_ns && t_ns < start_ns + width_ns) ? amps : 0.0;
  }
};

/// Current step at `start_ns`.
struct StepSource {
  double amps = 1.0;
  double start_ns = 0.0;

  double current_at(double t_ns) const { return t_ns >= start_ns ? amps : 0.0; }
};

}  // namespace slm::pdn
