// Calibrated default configuration reproducing the paper's setup on the
// simulated substrate.
//
// Clocks follow the paper exactly (benign circuit synthesised for 50 MHz,
// overclocked to 300 MHz with results kept every second cycle = 150 MS/s;
// AES at 100 MHz; TDC effective 150 MS/s). The electrical constants are
// *effective* simulation values chosen so the observable shapes land in
// the paper's bands (sensitive-bit counts, TDC vs benign-sensor trace
// counts); they are plain data — nothing in the library depends on them.
#pragma once

#include <cstdint>

#include "crypto/aes_datapath.hpp"
#include "netlist/generators/alu.hpp"
#include "netlist/generators/c6288.hpp"
#include "pdn/current_source.hpp"
#include "pdn/rlc.hpp"
#include "sensors/ro_sensor.hpp"
#include "sensors/tdc.hpp"
#include "timing/capture.hpp"
#include "timing/delay_model.hpp"

namespace slm::core {

struct Calibration {
  // --- clocks (paper Sec. IV) -------------------------------------------
  double benign_design_mhz = 50.0;
  double overclock_mhz = 300.0;
  double aes_clock_mhz = 100.0;
  double sensor_sample_mhz = 150.0;  ///< every 2nd overclock cycle

  // --- physics -----------------------------------------------------------
  timing::VoltageDelayModel delay{1.0, 2.0};
  pdn::PdnConfig pdn{};
  pdn::RoGridConfig ro_grid{};
  crypto::DatapathConfig aes{};
  sensors::TdcConfig tdc{};
  sensors::RoSensorConfig ro_sensor{};  ///< RO-counter reference sensor
  timing::CaptureConfig capture{};

  // --- circuits ------------------------------------------------------------
  netlist::AluOptions alu{};
  netlist::C6288Options c6288{};

  // --- environment ---------------------------------------------------------
  double env_noise_v = 0.0015;  ///< white measurement noise on V (sigma)

  /// Victim->attacker PDN coupling (1 = same region; the fabric model
  /// supplies distance-derived values < 1). `coupling` is a global
  /// multiplier; the per-experiment values reflect the different
  /// floorplans of the ALU (Fig. 3) and C6288 (Fig. 4) setups.
  double coupling = 1.0;
  double alu_coupling = 0.30;
  double c6288_coupling = 0.80;

  /// Effective coupling for a given benign circuit placement.
  double coupling_for_alu() const { return coupling * alu_coupling; }
  double coupling_for_c6288() const { return coupling * c6288_coupling; }

  /// Paper's AES key (the FIPS-197 example key).
  crypto::Block aes_key() const;

  /// Voltage swing the RO grid produces (used to define the
  /// deterministically "sensitive" endpoint band). Derived values filled
  /// in by paper_defaults().
  double ro_v_min = 0.0;
  double ro_v_max = 0.0;

  double overclock_period_ns() const { return 1000.0 / overclock_mhz; }
  double sensor_sample_period_ns() const { return 1000.0 / sensor_sample_mhz; }

  /// The calibrated configuration used by every figure bench.
  static Calibration paper_defaults();

  /// Field-for-field equality (every nested config struct defaults its
  /// own), so a field added here joins core::SetupMemo's keys unasked.
  bool operator==(const Calibration&) const = default;
};

}  // namespace slm::core
