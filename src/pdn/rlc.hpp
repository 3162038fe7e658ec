// Lumped second-order model of the shared power distribution network.
//
// A voltage regulator (ideal source Vreg) feeds the die capacitance C
// through the package/board parasitics R and L; all tenants draw their
// load current I(t) from the same C node:
//
//     L dI_L/dt = Vreg - V - R * I_L
//     C dV/dt   = I_L - I_load(t)
//
// With the default parameters the system is underdamped: a current step
// produces the droop-then-overshoot shape the paper's Fig. 6 shows when
// the RO grid switches on and off. The model is linear, which the fast
// campaign engine (CycleResponseMatrix) exploits.
#pragma once

#include <cstddef>
#include <vector>

namespace slm::pdn {

struct PdnConfig {
  double vreg = 1.0;     ///< regulator output (V)
  double r_ohm = 0.050;  ///< series resistance (ohm)
  double l_h = 100e-12;  ///< series inductance (H)
  double c_f = 25e-9;    ///< die + package capacitance (F)
  double dt_ns = 0.05;   ///< integration step (ns)

  /// Standing current of the rest of the design (A); defines the DC
  /// operating point the droops ride on.
  double idle_current_a = 0.5;

  bool operator==(const PdnConfig&) const = default;
};

/// Fourth-order Runge-Kutta integrator over the two-state RLC system.
class RlcPdn {
 public:
  explicit RlcPdn(const PdnConfig& cfg);

  /// Re-initialise to the DC operating point for the idle current.
  void reset();

  /// Advance one dt with the given *additional* load current (on top of
  /// the idle current); returns the new node voltage.
  double step(double extra_load_a);

  /// Batch-run a whole current sequence; returns voltage after each step.
  std::vector<double> run(const std::vector<double>& extra_load_a);

  double voltage() const { return v_; }
  const PdnConfig& config() const { return cfg_; }

  /// DC voltage for a constant total load (analytic: V = Vreg - R*I).
  double dc_voltage(double total_load_a) const;

  /// Damping ratio zeta of the linear system (diagnostic; < 1 means the
  /// step response overshoots).
  double damping_ratio() const;

  /// Resonance frequency in MHz (diagnostic).
  double resonance_mhz() const;

 private:
  PdnConfig cfg_;
  double v_ = 0.0;   // capacitor voltage
  double il_ = 0.0;  // inductor current
};

}  // namespace slm::pdn
