// Engine internals shared by the capture engines (core/campaign.cpp)
// and the fabric worker (core/fabric.cpp): the resolved capture plan,
// one shard's block buffers, and the label step that turns a block's
// ciphertexts into class labels for the accumulators.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/aes128.hpp"
#include "sca/model.hpp"
#include "sensors/benign_sensor.hpp"

namespace slm::core {

/// Precompiled sensor dispatch for CpaCampaign::read_sensor_fast. Benign
/// modes get a batch plan; other modes fall back to the per-call loop.
struct SensorPlan {
  sensors::BenignSensorBank::CompiledHwPlan hw;
  sensors::BenignSensorBank::CompiledBitPlan bit;
  bool batched = false;
};

/// Everything the capture body needs besides the trace range, resolved
/// once per run (see CpaCampaign::capture_plan).
struct CapturePlan {
  SensorPlan sensor;
  std::vector<std::size_t> bits;  ///< bits of interest (benign HW)
  std::size_t block = 0;          ///< resolved trace-block size
  bool simd = true;               ///< resolved lane-parallel dispatch
};

/// One shard's block buffers. capture_block fills `y` (readings, trace-
/// major) and `ct` (ciphertexts); label_block fills the class labels.
struct CaptureBuffers {
  std::vector<double> y;
  std::vector<crypto::Block> ct;
  std::vector<std::uint8_t> cls_v;
  std::vector<std::uint8_t> cls_b;
  // Staging: voltages, cycle-major currents, env-noise and sensor draws,
  // one trace's readings.
  std::vector<double> v;
  std::vector<double> ic;
  std::vector<double> zv;
  std::vector<double> z;
  std::vector<double> yt;
};

/// The engines' label step: the class value and bit of ciphertexts
/// buf.ct[0, n) under every model, trace-major (models.size() labels per
/// trace) — the layout XorClassCpa::add_block (one model) and
/// MultiByteCpa::add_block (sixteen) take.
void label_block(const std::vector<sca::LastRoundBitModel>& models,
                 std::size_t n, CaptureBuffers& buf);

}  // namespace slm::core
