// Set-up memo: the two campaign set-up results a long-lived caller
// keeps recomputing, kept once per key.
//
// A campaign's set-up is dominated by two results that are exact
// functions of their inputs: the PDN response matrix (one RLC run per
// victim cycle, 44 in all) and the sensor pre-pass that resolves the
// benign bits of interest or an auto-selected endpoint bit / TDC stage
// (a 4000-trace pass). `slm serve` rebuilds a job's campaign at every
// timeslice, so the daemon owns one SetupMemo for its lifetime and lends
// it to every campaign through CampaignConfig::setup_memo. A null memo
// is the unchanged path (CLI, benches, examples).
//
// Every key holds every input of its result and is compared field for
// field (defaulted operator== down to the nested calibration structs);
// no hash ever picks an entry. A hit restores the state the pre-pass
// leaves behind, so it is indistinguishable from a rerun. DESIGN.md
// §14 states the contract.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/campaign.hpp"
#include "core/setup.hpp"
#include "crypto/aes_datapath.hpp"
#include "defense/active_fence.hpp"
#include "pdn/cycle_response.hpp"
#include "pdn/rlc.hpp"

namespace slm::core {

/// Everything pdn::CycleResponseMatrix::build reads.
struct ResponseKey {
  pdn::PdnConfig pdn;
  std::vector<double> sample_times_ns;
  std::vector<double> cycle_starts_ns;
  double cycle_len_ns = 0.0;

  bool operator==(const ResponseKey&) const = default;
};

/// Everything CpaCampaign's sensor pre-pass reads: the platform (benign
/// circuit, calibration, platform seed), the campaign knobs it consults,
/// and the two stateful inputs at pass start. The pass drives the
/// victim's stateful encrypt(), so the register snapshot (mask stream
/// included) is part of the key, as is the fence's own stream position.
struct SensorBitsKey {
  BenignCircuit circuit = BenignCircuit::kAlu;
  Calibration cal;
  std::uint64_t platform_seed = 0;
  SensorMode mode = SensorMode::kBenignHw;
  std::size_t single_bit = 0;  ///< as requested (kAutoBit unresolved)
  std::uint64_t seed = 0;
  std::size_t selection_traces = 0;
  double selection_min_variance = 0.0;
  std::size_t selection_top_k = 0;
  std::vector<double> sample_times_ns;
  defense::ActiveFenceConfig fence;
  std::optional<std::array<std::uint64_t, 4>> fence_state;  ///< no fence
  crypto::AesDatapathModel::RegisterSnapshot registers;

  bool operator==(const SensorBitsKey&) const = default;
};

/// The pre-pass outcome plus the state the pass leaves behind, which a
/// hit restores: the victim's post-pass registers and fence stream.
struct SensorBits {
  std::vector<std::size_t> bits;  ///< bits of interest (benign HW)
  std::size_t single_bit = 0;     ///< resolved single-bit index
  crypto::AesDatapathModel::RegisterSnapshot registers;
  std::optional<std::array<std::uint64_t, 4>> fence_state;
};

class SetupMemo {
 public:
  /// Entries kept per table; inserting beyond it evicts the oldest.
  static constexpr std::size_t kCapacity = 16;

  std::optional<pdn::CycleResponseMatrix> find(const ResponseKey& key) const;
  std::optional<SensorBits> find(const SensorBitsKey& key) const;

  /// Store a result; a key already present keeps its first entry.
  void insert(ResponseKey key, pdn::CycleResponseMatrix value);
  void insert(SensorBitsKey key, SensorBits value);

  /// Entries held, both tables together.
  std::size_t size() const;

 private:
  template <class K, class V>
  using Table = std::deque<std::pair<K, V>>;

  mutable std::mutex m_;
  Table<ResponseKey, pdn::CycleResponseMatrix> responses_;
  Table<SensorBitsKey, SensorBits> sensor_bits_;
};

}  // namespace slm::core
