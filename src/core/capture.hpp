// Engine internals shared by the capture engines (core/campaign.cpp)
// and the fabric worker (core/fabric.cpp): the resolved capture plan,
// one shard's block buffers and accumulator, and the fold step that
// labels a block's ciphertexts and adds the block to an accumulator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/dispatch.hpp"
#include "common/rng.hpp"
#include "crypto/aes_datapath.hpp"
#include "sca/fold.hpp"
#include "sensors/benign_sensor.hpp"

namespace slm::core {

/// Precompiled sensor read-out for CpaCampaign::capture_block: the benign
/// modes' compiled plans, and how many standard normals each sample's
/// reading takes from the trace's stream (after its env-noise draw).
struct SensorPlan {
  sensors::BenignSensorBank::CompiledHwPlan hw;
  sensors::BenignSensorBank::CompiledBitPlan bit;
  std::size_t draws_per_sample = 0;
};

/// Everything the capture body needs besides the trace range, resolved
/// once per run (see CpaCampaign::capture_plan).
struct CapturePlan {
  SensorPlan sensor;
  std::size_t block = 0;          ///< resolved trace-block size
  bool simd = true;               ///< resolved lane-parallel dispatch
  /// Level of the lane-block draws (scalar when simd is off).
  DispatchLevel draw_level = DispatchLevel::kScalar;
  /// Level of the victim core (portable when simd is off).
  crypto::AesDatapathModel::Level victim_level =
      crypto::AesDatapathModel::Level::kPortable;
};

/// One shard's block buffers. capture_block fills `y` (readings, trace-
/// major) and `ct` (ciphertexts); fold_block fills the class labels.
struct CaptureBuffers {
  std::vector<double> y;
  std::vector<crypto::Block> ct;
  std::vector<std::uint8_t> cls_v;
  std::vector<std::uint8_t> cls_b;
  // Staging: each trace's capture stream and plaintext, cycle-major
  // currents and lane-major voltages (64-byte aligned for the AVX2 PDN
  // tile), env-noise and sensor draws.
  std::vector<Xoshiro256> rng;
  std::vector<crypto::Block> pt;
  AlignedVector<double> ic;
  AlignedVector<double> v;
  std::vector<double> zv;
  std::vector<double> z;
};

/// One shard's mutable half of the pipeline: its accumulator, block
/// buffers and observer-gated phase timers (accumulated thread-locally,
/// read by the coordinator only between segments). The engines run one
/// per worker; the fabric worker runs one over its trace range.
template <class Acc>
struct Shard {
  explicit Shard(std::size_t samples) : acc(samples) {}
  Acc acc;
  std::size_t position = 0;
  CaptureBuffers buf;
  double kernel_s = 0.0;
  double cpa_s = 0.0;
  std::size_t blocks = 0;
};

/// The engines' fold step: label ciphertexts buf.ct[0, n) under every
/// model (sca::label_classes) and add the block's readings to `acc` — an
/// XorClassCpa for one model, a MultiByteCpa for sixteen.
template <class Acc>
void fold_block(const std::vector<sca::LastRoundBitModel>& models,
                std::size_t n, CaptureBuffers& buf, Acc& acc) {
  static_assert(sizeof(crypto::Block) == 16);
  buf.cls_v.resize(n * models.size());
  buf.cls_b.resize(n * models.size());
  sca::label_classes(models,
                     reinterpret_cast<const std::uint8_t*>(buf.ct.data()), n,
                     buf.cls_v.data(), buf.cls_b.data());
  acc.add_block(buf.cls_v.data(), buf.cls_b.data(), buf.y.data(), n);
}

}  // namespace slm::core
