// AttackSetup assembles the full experimental platform of Fig. 2 on the
// simulated substrate: the benign circuit (ALU or two C6288 multipliers)
// as a sensor, the reference TDC, the AES victim, the RO aggressor grid,
// and the multi-tenant floorplan. All figure benches and examples start
// from one of these.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "crypto/aes_datapath.hpp"
#include "fpga/fabric.hpp"
#include "netlist/netlist.hpp"
#include "pdn/current_source.hpp"
#include "sensors/benign_sensor.hpp"
#include "sensors/ro_sensor.hpp"
#include "sensors/tdc.hpp"

namespace slm::core {

enum class BenignCircuit {
  kAlu,      ///< 192-bit adder ALU (one instance)
  kC6288x2,  ///< two 16x16 multipliers, outputs concatenated (64 bits)
};

const char* benign_circuit_name(BenignCircuit c);

class AttackSetup {
 public:
  AttackSetup(BenignCircuit circuit, const Calibration& cal,
              std::uint64_t seed = 0x51);

  const Calibration& calibration() const { return cal_; }
  BenignCircuit circuit_kind() const { return circuit_; }
  /// Platform seed the benign sensors' static skews were drawn from.
  std::uint64_t seed() const { return seed_; }

  /// Victim->attacker PDN coupling for this experiment's floorplan.
  double effective_coupling() const {
    return circuit_ == BenignCircuit::kAlu ? cal_.coupling_for_alu()
                                           : cal_.coupling_for_c6288();
  }

  /// The benign sensor bank (1 instance for the ALU, 2 for C6288).
  const sensors::BenignSensorBank& sensor() const { return bank_; }

  /// Endpoint count of the concatenated sensor word (192 or 64).
  std::size_t sensor_bits() const { return bank_.endpoint_count(); }

  const sensors::TdcSensor& tdc() const { return *tdc_; }
  const sensors::RoCounterSensor& ro_sensor() const { return *ro_sensor_; }
  crypto::AesDatapathModel& victim() { return *victim_; }
  const pdn::RoGridAggressor& ro_grid() const { return *ro_grid_; }

  /// The benign circuit's netlist(s) (for checker/floorplan use).
  const netlist::Netlist& benign_netlist(std::size_t instance = 0) const;
  std::size_t benign_instance_count() const { return netlists_.size(); }

  /// Multi-tenant floorplan with the attacker (benign circuit + TDC) and
  /// victim (AES) regions, sensitive endpoints marked (Figs. 3/4).
  fpga::Fabric make_floorplan() const;

  /// Endpoints deterministically sensitive across the RO voltage band,
  /// global indices over the concatenated word.
  std::vector<std::size_t> ro_band_sensitive_endpoints() const;

 private:
  BenignCircuit circuit_;
  Calibration cal_;
  std::uint64_t seed_;
  std::vector<std::shared_ptr<netlist::Netlist>> netlists_;
  sensors::BenignSensorBank bank_;
  std::unique_ptr<sensors::TdcSensor> tdc_;
  std::unique_ptr<sensors::RoCounterSensor> ro_sensor_;
  std::unique_ptr<crypto::AesDatapathModel> victim_;
  std::unique_ptr<pdn::RoGridAggressor> ro_grid_;
};

}  // namespace slm::core
