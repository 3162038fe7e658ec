#include "core/setup.hpp"

#include <set>

#include "common/error.hpp"

namespace slm::core {

const char* benign_circuit_name(BenignCircuit c) {
  switch (c) {
    case BenignCircuit::kAlu:
      return "alu192";
    case BenignCircuit::kC6288x2:
      return "c6288x2";
  }
  return "?";
}

AttackSetup::AttackSetup(BenignCircuit circuit, const Calibration& cal,
                         std::uint64_t seed)
    : circuit_(circuit), cal_(cal), seed_(seed) {
  sensors::BenignSensorConfig scfg;
  scfg.capture = cal_.capture;

  switch (circuit_) {
    case BenignCircuit::kAlu: {
      auto nl = std::make_shared<netlist::Netlist>(
          netlist::make_alu(cal_.alu));
      scfg.seed = seed;
      bank_.add(std::make_shared<sensors::BenignSensor>(
          *nl, netlist::alu_reset_stimulus(cal_.alu),
          netlist::alu_measure_stimulus(cal_.alu), scfg));
      netlists_.push_back(std::move(nl));
      break;
    }
    case BenignCircuit::kC6288x2: {
      for (std::size_t inst = 0; inst < 2; ++inst) {
        auto nl = std::make_shared<netlist::Netlist>(
            netlist::make_c6288(cal_.c6288));
        scfg.seed = seed + 0x9e37 * (inst + 1);
        bank_.add(std::make_shared<sensors::BenignSensor>(
            *nl, netlist::c6288_reset_stimulus(cal_.c6288),
            netlist::c6288_measure_stimulus(cal_.c6288), scfg));
        netlists_.push_back(std::move(nl));
      }
      break;
    }
  }

  tdc_ = std::make_unique<sensors::TdcSensor>(cal_.tdc);
  ro_sensor_ = std::make_unique<sensors::RoCounterSensor>(cal_.ro_sensor);
  victim_ = std::make_unique<crypto::AesDatapathModel>(cal_.aes_key(),
                                                       cal_.aes);
  ro_grid_ = std::make_unique<pdn::RoGridAggressor>(cal_.ro_grid);
}

const netlist::Netlist& AttackSetup::benign_netlist(
    std::size_t instance) const {
  SLM_REQUIRE(instance < netlists_.size(),
              "benign_netlist: instance out of range");
  return *netlists_[instance];
}

std::vector<std::size_t> AttackSetup::ro_band_sensitive_endpoints() const {
  std::vector<std::size_t> out;
  std::size_t base = 0;
  for (std::size_t i = 0; i < bank_.instance_count(); ++i) {
    const auto& s = bank_.instance(i);
    for (std::size_t e :
         s.capture().sensitive_endpoints(cal_.ro_v_min, cal_.ro_v_max)) {
      out.push_back(base + e);
    }
    base += s.endpoint_count();
  }
  return out;
}

fpga::Fabric AttackSetup::make_floorplan() const {
  fpga::Fabric fabric(120, 48);
  const std::size_t attacker =
      fabric.add_tenant("attacker", fpga::Rect{0, 0, 58, 48});
  const std::size_t victim =
      fabric.add_tenant("victim", fpga::Rect{62, 0, 58, 48});

  // Map sensitive endpoints to scattered hot cells of the benign block.
  const auto sensitive = ro_band_sensitive_endpoints();
  const std::size_t sensor_cells = 600;
  std::set<std::size_t> hot;
  for (std::size_t e : sensitive) {
    hot.insert((e * 7919 + 13) % sensor_cells);
  }

  fpga::PlacedModule benign;
  benign.name = benign_circuit_name(circuit_);
  benign.symbol = 'B';
  benign.bounds = fpga::Rect{2, 4, 34, 40};
  benign.cell_count = sensor_cells;
  benign.hot_cells.assign(hot.begin(), hot.end());
  fabric.place_module(attacker, benign);

  fpga::PlacedModule tdc;
  tdc.name = "tdc64";
  tdc.symbol = 'T';
  tdc.bounds = fpga::Rect{40, 4, 4, 32};
  tdc.fill = 0.9;
  fabric.place_module(attacker, tdc);

  fpga::PlacedModule ros;
  ros.name = "ro_grid";
  ros.symbol = 'R';
  ros.bounds = fpga::Rect{46, 2, 10, 44};
  ros.fill = 0.8;
  fabric.place_module(attacker, ros);

  fpga::PlacedModule aes;
  aes.name = "aes128";
  aes.symbol = 'A';
  aes.bounds = fpga::Rect{70, 10, 24, 28};
  aes.fill = 0.7;
  fabric.place_module(victim, aes);

  return fabric;
}

}  // namespace slm::core
