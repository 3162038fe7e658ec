// Replay a captured `SLMTRC1` store through the CPA / TVLA folds
// without regenerating a single trace (docs/STORE.md). The class labels
// come from the stored ciphertexts alone (sca::LastRoundBitModel never
// consults the plaintext), the readings feed the accumulators straight
// out of the mmap, and the folds run at the same checkpoint trace
// counts as the live engines — so by the partition-invariance argument
// in sca/cpa.hpp every progress point, rank, and correlation is
// bit-identical to the live capture that wrote the store.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes128.hpp"
#include "sca/cpa.hpp"
#include "sca/fold.hpp"
#include "sca/mtd.hpp"
#include "store/trace_store.hpp"

namespace slm::obs {
class CampaignObserver;
}

namespace slm::store {

/// The target-byte CPA section — mirrors the fields of
/// core::CampaignResult that replay can reproduce.
struct ReplayAttackResult {
  std::vector<sca::CpaProgressPoint> progress;
  sca::MtdResult mtd;
  std::uint8_t correct_guess = 0;
  std::uint8_t recovered_guess = 0;
  bool key_recovered = false;
  std::size_t traces = 0;
};

/// The full-key section: sixteen bytes under the live engines' early-
/// exit tracker (sca::EarlyExitTracker), plus the assembled key.
struct ReplayFullKeyResult {
  std::array<sca::FullKeyByteResult, sca::MultiByteCpa::kBytes> bytes;
  crypto::Block recovered_last_round_key{};
  bool success = false;  ///< all sixteen bytes recovered
  std::size_t bytes_early_exited = 0;
  std::size_t traces = 0;
};

struct ReplayTvlaResult {
  double max_abs_t = 0.0;
  bool leakage_detected = false;
  std::size_t fixed_traces = 0;
  std::size_t random_traces = 0;
  std::size_t traces = 0;
};

/// Which analyses the one-pass sweep feeds. The defaults run everything
/// the store kind supports; `fullkey_opts` are the early-exit knobs.
struct ReplayAllOptions {
  bool attack = true;   ///< target-byte CPA progress + MTD
  bool fullkey = true;  ///< all sixteen last-round bytes, early exit
  bool tvla = true;     ///< Welch t-test (see ReplayAllResult::tvla)
  sca::FullKeyConfig fullkey_opts;
};

/// Results of one sweep. Only the sections whose `has_*` flag is set are
/// populated. The attack section is the target-byte fold of a standalone
/// XorClassCpa, or of the fused 16-byte tile when fullkey rides along
/// (the multibyte_cpa_test equivalence property pins the two equal). For
/// attack-kind stores the TVLA section is a *specific* t-test:
/// populations partitioned by the target leakage model's predicted class
/// bit (fixed_traces = bit 0, random_traces = bit 1). For a kTvla store
/// it is the capture-interleaved fixed/random split (trace 2k fixed,
/// 2k+1 random), streamed in stored order so the online moments match
/// the live run_tvla pass bit for bit.
struct ReplayAllResult {
  bool has_attack = false;
  bool has_fullkey = false;
  bool has_tvla = false;
  ReplayAttackResult attack;
  ReplayFullKeyResult fullkey;
  ReplayTvlaResult tvla;
  std::size_t traces = 0;
  double replay_seconds = 0.0;  ///< the whole one-pass sweep
};

/// The one replay entry point (docs/STORE.md): sweep the mmap'd store
/// ONCE and feed every requested analysis from the same cache-resident
/// column blocks. `checkpoints` is normalized by sca::checkpoint_schedule
/// — the rule the live engines fold by — so any request the live run
/// took replays to the same progress points. Attack-kind stores
/// (kByteCampaign and kFullKey — the labels derive from the stored
/// ciphertexts alone) support all three analyses; kTvla stores support
/// only the tvla section and throw StoreMismatch if attack or fullkey is
/// requested.
ReplayAllResult replay_all(const TraceStoreReader& store,
                           const std::vector<std::size_t>& checkpoints,
                           const crypto::Block& true_last_round_key,
                           const ReplayAllOptions& opts = {},
                           obs::CampaignObserver* observer = nullptr);

}  // namespace slm::store
