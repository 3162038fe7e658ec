#include "crypto/aes_datapath.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/dispatch.hpp"
#include "common/rng.hpp"

namespace slm::crypto {
namespace {

Block key() { return block_from_hex("2b7e151628aed2a6abf7158809cf4f3c"); }

TEST(AesDatapath, CiphertextMatchesReference) {
  AesDatapathModel model(key(), DatapathConfig{});
  const Aes128 ref(key());
  Xoshiro256 rng(2);
  for (int t = 0; t < 20; ++t) {
    Block pt;
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(model.encrypt(pt).ciphertext, ref.encrypt(pt));
  }
}

TEST(AesDatapath, CycleMapping) {
  EXPECT_EQ(AesDatapathModel::cycle_of(0, 0), 0u);
  EXPECT_EQ(AesDatapathModel::cycle_of(0, 3), 3u);
  EXPECT_EQ(AesDatapathModel::cycle_of(1, 0), 4u);
  EXPECT_EQ(AesDatapathModel::cycle_of(10, 3), 43u);
  EXPECT_EQ(AesDatapathModel::kCycles, 44u);
}

TEST(AesDatapath, LeakageCycleForByte) {
  // Byte position p sits in column p/4, written in cycle 40 + p/4.
  EXPECT_EQ(AesDatapathModel::leakage_cycle_for_byte(0), 40u);
  EXPECT_EQ(AesDatapathModel::leakage_cycle_for_byte(3), 40u);
  EXPECT_EQ(AesDatapathModel::leakage_cycle_for_byte(4), 41u);
  EXPECT_EQ(AesDatapathModel::leakage_cycle_for_byte(15), 43u);
}

TEST(AesDatapath, LastRoundHdMatchesStates) {
  // The HD of cycle 40+c must equal HD(state9 col c, ct col c).
  AesDatapathModel model(key(), DatapathConfig{});
  const Aes128 ref(key());
  const Block pt = block_from_hex("3243f6a8885a308d313198a2e0370734");
  const auto enc = model.encrypt(pt);
  const auto states = ref.encrypt_states(pt);
  for (std::size_t col = 0; col < 4; ++col) {
    std::uint32_t hd = 0;
    for (std::size_t r = 0; r < 4; ++r) {
      hd += static_cast<std::uint32_t>(slm::hamming_distance(
          states[9][4 * col + r], states[10][4 * col + r]));
    }
    EXPECT_EQ(enc.cycle_hd[40 + col], hd) << "col " << col;
  }
}

TEST(AesDatapath, CurrentIsBasePlusHdScaled) {
  DatapathConfig cfg;
  cfg.base_current_a = 0.5;
  cfg.current_per_hd_a = 0.01;
  AesDatapathModel model(key(), cfg);
  const auto enc = model.encrypt(Block{});
  for (std::size_t c = 0; c < AesDatapathModel::kCycles; ++c) {
    EXPECT_DOUBLE_EQ(enc.cycle_current[c],
                     0.5 + 0.01 * enc.cycle_hd[c]);
  }
}

TEST(AesDatapath, RegisterStateCarriesAcrossEncryptions) {
  DatapathConfig cfg;
  cfg.carry_previous_state = true;
  AesDatapathModel carry(key(), cfg);
  cfg.carry_previous_state = false;
  AesDatapathModel fresh(key(), cfg);

  const Block pt = block_from_hex("00000000000000000000000000000000");
  // First encryption: both start from a zero register -> same HDs.
  const auto c1 = carry.encrypt(pt);
  const auto f1 = fresh.encrypt(pt);
  EXPECT_EQ(c1.cycle_hd, f1.cycle_hd);
  // Second encryption: the carrying model loads over the old ciphertext,
  // so the load-phase HDs differ.
  const auto c2 = carry.encrypt(pt);
  const auto f2 = fresh.encrypt(pt);
  EXPECT_EQ(f2.cycle_hd, f1.cycle_hd);
  bool any_diff = false;
  for (std::size_t c = 0; c < 4; ++c) {
    if (c2.cycle_hd[c] != f2.cycle_hd[c]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(AesDatapath, CyclePeriodFromClock) {
  DatapathConfig cfg;
  cfg.clock_mhz = 100.0;
  AesDatapathModel model(key(), cfg);
  EXPECT_DOUBLE_EQ(model.cycle_period_ns(), 10.0);
}

// The build turns FMA contraction off (-ffp-contract=off), so code in a
// function whose target has FMA rounds base + k * hd as plain code does:
// a multiply and an add, each rounded. With contraction on, GCC fuses
// them there, and several hd in 0..64 come out a bit apart.
#if defined(__x86_64__)
[[gnu::noipa]] __attribute__((target("avx2,fma"))) double current_fma_target(
    double base, double k, std::uint32_t hd) {
  return base + k * hd;
}
#endif

[[gnu::noipa]] double current_plain(double base, double k, std::uint32_t hd) {
  return base + k * hd;
}

TEST(AesDatapath, FmaTargetRoundsLikePlainCode) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) {
    GTEST_SKIP() << "no AVX2/FMA on this CPU";
  }
  const DatapathConfig cfg;
  for (std::uint32_t hd = 0; hd <= 64; ++hd) {
    const double fma_target =
        current_fma_target(cfg.base_current_a, cfg.current_per_hd_a, hd);
    const double plain =
        current_plain(cfg.base_current_a, cfg.current_per_hd_a, hd);
    EXPECT_EQ(std::memcmp(&fma_target, &plain, sizeof(double)), 0)
        << "hd " << hd;
  }
#else
  GTEST_SKIP() << "x86-64 only";
#endif
}

// --- Word-level core vs a byte-wise oracle ------------------------------
//
// The oracle is the byte-level datapath the word core replaced: states
// from Aes128::encrypt_states, the 16 mask bytes of each round drawn
// into a Block, and each cycle's HD summed byte by byte.

using Regs = AesDatapathModel::RegisterSnapshot;

std::uint32_t byte_hd(const Block& a, const Block& b, std::size_t col) {
  std::uint32_t hd = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    hd += static_cast<std::uint32_t>(
        slm::hamming_distance(a[4 * col + i], b[4 * col + i]));
  }
  return hd;
}

AesDatapathModel::Encryption oracle_encrypt(const Aes128& aes,
                                            const DatapathConfig& cfg,
                                            const Block& pt,
                                            Xoshiro256& mask_rng, Regs& regs) {
  AesDatapathModel::Encryption enc;
  enc.plaintext = pt;
  Block reg = cfg.carry_previous_state ? regs.register_state : Block{};
  Block mask_reg = cfg.carry_previous_state ? regs.register_mask : Block{};
  const auto states = aes.encrypt_states(pt);
  enc.ciphertext = states[10];
  for (std::size_t round = 0; round <= 10; ++round) {
    Block target = states[round];
    Block mask{};
    if (cfg.masked) {
      for (auto& m : mask) m = static_cast<std::uint8_t>(mask_rng.next());
      for (std::size_t i = 0; i < 16; ++i) target[i] ^= mask[i];
    }
    for (std::size_t col = 0; col < 4; ++col) {
      const std::size_t cyc = 4 * round + col;
      enc.cycle_hd[cyc] = byte_hd(reg, target, col);
      if (cfg.masked) enc.cycle_hd[cyc] += byte_hd(mask_reg, mask, col);
      for (std::size_t i = 0; i < 4; ++i) {
        reg[4 * col + i] = target[4 * col + i];
        if (cfg.masked) mask_reg[4 * col + i] = mask[4 * col + i];
      }
    }
  }
  for (std::size_t c = 0; c < AesDatapathModel::kCycles; ++c) {
    enc.cycle_current[c] =
        cfg.base_current_a + cfg.current_per_hd_a * enc.cycle_hd[c];
  }
  regs.register_state = reg;
  regs.register_mask = mask_reg;
  return enc;
}

// The contract-v2 oracle: the mask stream is re-derived per trace.
AesDatapathModel::Encryption oracle_stateless(const Aes128& aes,
                                              const DatapathConfig& cfg,
                                              const Block& pt,
                                              std::uint64_t trace,
                                              Regs& regs) {
  Xoshiro256 mask_rng =
      Xoshiro256::trace_stream(cfg.mask_seed, kTraceDomainMask, trace);
  AesDatapathModel::Encryption enc =
      oracle_encrypt(aes, cfg, pt, mask_rng, regs);
  regs.mask_rng_state = {};
  return enc;
}

struct CoreCase {
  const char* name;
  bool masked;
  bool carry;
};

constexpr CoreCase kCoreCases[] = {
    {"unmasked", false, true},
    {"masked", true, true},
    {"no-carry", false, false},
    {"masked-no-carry", true, false},
};

DatapathConfig core_config(const CoreCase& cc) {
  DatapathConfig cfg;
  cfg.masked = cc.masked;
  cfg.carry_previous_state = cc.carry;
  return cfg;
}

Block random_block(Xoshiro256& rng) {
  Block b;
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

bool same_bits(const std::array<double, AesDatapathModel::kCycles>& a,
               const std::array<double, AesDatapathModel::kCycles>& b) {
  return std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

// Every victim level this CPU runs. The per-trace entries run
// active_level(), which follows the process-wide dispatch level, so a
// case makes a level active by forcing the dispatch level below AVX2
// (portable) or at it (AES-NI).
struct LevelCase {
  AesDatapathModel::Level level;
  DispatchLevel dispatch;
  const char* name;
};

std::vector<LevelCase> runnable_levels() {
  std::vector<LevelCase> levels{{AesDatapathModel::Level::kPortable,
                                 DispatchLevel::kScalar, "portable"}};
  if (AesDatapathModel::aesni_supported() &&
      detect_dispatch() >= DispatchLevel::kAvx2) {
    levels.push_back(
        {AesDatapathModel::Level::kAesni, DispatchLevel::kAvx2, "aesni"});
  }
  return levels;
}

class ActiveLevel {
 public:
  explicit ActiveLevel(const LevelCase& lc) {
    force_dispatch_for_testing(lc.dispatch);
    EXPECT_EQ(AesDatapathModel::active_level(), lc.level) << lc.name;
  }
  ~ActiveLevel() { clear_forced_dispatch_for_testing(); }
  ActiveLevel(const ActiveLevel&) = delete;
  ActiveLevel& operator=(const ActiveLevel&) = delete;
};

TEST(AesDatapathCore, StatelessMatchesByteOracle) {
  const Aes128 aes(key());
  for (const LevelCase& lc : runnable_levels()) {
    const ActiveLevel active(lc);
    for (const CoreCase& cc : kCoreCases) {
      const std::string what = std::string(cc.name) + " " + lc.name;
      const DatapathConfig cfg = core_config(cc);
      const AesDatapathModel model(key(), cfg);
      Xoshiro256 rng(0x5eed);
      Regs regs{random_block(rng), random_block(rng), {1, 2, 3, 4}};
      Regs oracle_regs = regs;
      for (std::uint64_t t = 0; t < 200; ++t) {
        const Block pt = random_block(rng);
        const auto enc = model.encrypt_stateless(pt, t, regs);
        const auto ref = oracle_stateless(aes, cfg, pt, t, oracle_regs);
        ASSERT_EQ(enc.cycle_hd, ref.cycle_hd) << what << " trace " << t;
        ASSERT_TRUE(same_bits(enc.cycle_current, ref.cycle_current))
            << what << " trace " << t;
        ASSERT_EQ(enc.ciphertext, ref.ciphertext) << what;
        ASSERT_EQ(enc.plaintext, pt);
        ASSERT_EQ(regs, oracle_regs) << what << " trace " << t;
      }
    }
  }
}

TEST(AesDatapathCore, StatefulEncryptMatchesByteOracle) {
  const Aes128 aes(key());
  for (const LevelCase& lc : runnable_levels()) {
    const ActiveLevel active(lc);
    for (const CoreCase& cc : kCoreCases) {
      const std::string what = std::string(cc.name) + " " + lc.name;
      const DatapathConfig cfg = core_config(cc);
      AesDatapathModel model(key(), cfg);
      Xoshiro256 oracle_masks(cfg.mask_seed);
      Regs oracle_regs{};
      Xoshiro256 rng(0xca11);
      for (int t = 0; t < 100; ++t) {
        const Block pt = random_block(rng);
        const auto enc = model.encrypt(pt);
        const auto ref =
            oracle_encrypt(aes, cfg, pt, oracle_masks, oracle_regs);
        ASSERT_EQ(enc.cycle_hd, ref.cycle_hd) << what << " trace " << t;
        ASSERT_TRUE(same_bits(enc.cycle_current, ref.cycle_current)) << what;
        ASSERT_EQ(enc.ciphertext, ref.ciphertext) << what;
      }
      oracle_regs.mask_rng_state = oracle_masks.state();
      EXPECT_EQ(model.register_snapshot(), oracle_regs) << what;
    }
  }
}

TEST(AesDatapathCore, RegistersAfterMatchesByteOracle) {
  const Aes128 aes(key());
  for (const CoreCase& cc : kCoreCases) {
    const DatapathConfig cfg = core_config(cc);
    const AesDatapathModel model(key(), cfg);
    Xoshiro256 rng(0xaf7e);
    for (std::uint64_t t = 0; t < 50; ++t) {
      const Block pt = random_block(rng);
      Regs ref{};
      (void)oracle_stateless(aes, cfg, pt, 1000 + t, ref);
      EXPECT_EQ(model.registers_after(pt, 1000 + t), ref) << cc.name;
    }
  }
}

// The block entry over a shard's chunk: the chain starts from the
// registers trace g0 - 1 leaves behind (the engines' registers_before),
// lanes write cycle-major currents at a stride wider than the block, and
// every runnable level is driven directly. The lane counts run the
// AES-NI level's four-lane body alone (4, 64), its one-trace tail alone
// (1, 2, 3) and both (5, 7, 63).
TEST(AesDatapathCore, BlockEntryMatchesByteOracle) {
  const Aes128 aes(key());
  const std::vector<LevelCase> levels = runnable_levels();
  constexpr std::size_t kCycles = AesDatapathModel::kCycles;
  constexpr std::uint64_t kShardStart = 4099;
  for (const CoreCase& cc : kCoreCases) {
    const DatapathConfig cfg = core_config(cc);
    const AesDatapathModel model(key(), cfg);
    Xoshiro256 rng(0xb1c0);
    const Block before = random_block(rng);
    const Regs start = model.registers_after(before, kShardStart - 1);
    for (const std::size_t lanes : {1, 2, 3, 4, 5, 7, 63, 64}) {
      const std::size_t stride = 67;
      std::vector<Block> pts(lanes);
      for (Block& pt : pts) pt = random_block(rng);
      // Oracle: the byte-wise chain, trace by trace.
      Regs oracle_regs = start;
      std::vector<AesDatapathModel::Encryption> ref;
      for (std::size_t b = 0; b < lanes; ++b) {
        ref.push_back(
            oracle_stateless(aes, cfg, pts[b], kShardStart + b, oracle_regs));
      }
      for (const LevelCase& lc : levels) {
        const std::string what = std::string(cc.name) + " lanes " +
                                 std::to_string(lanes) + " " + lc.name;
        Regs regs = start;
        std::vector<double> ic(kCycles * stride, -1.0);
        std::vector<Block> cts(lanes);
        model.encrypt_block(pts.data(), lanes, kShardStart, regs, ic.data(),
                            stride, cts.data(), lc.level);
        for (std::size_t b = 0; b < lanes; ++b) {
          ASSERT_EQ(cts[b], ref[b].ciphertext) << what << " lane " << b;
          for (std::size_t c = 0; c < kCycles; ++c) {
            const double got = ic[c * stride + b];
            ASSERT_EQ(std::memcmp(&got, &ref[b].cycle_current[c],
                                  sizeof(double)),
                      0)
                << what << " lane " << b << " cycle " << c;
          }
        }
        for (std::size_t c = 0; c < kCycles; ++c) {
          for (std::size_t b = lanes; b < stride; ++b) {
            ASSERT_EQ(ic[c * stride + b], -1.0) << what << " wrote lane " << b;
          }
        }
        EXPECT_EQ(regs, oracle_regs) << what;
        // The per-trace entry at the same level agrees with the block,
        // lane by lane.
        const ActiveLevel active(lc);
        Regs step = start;
        for (std::size_t b = 0; b < lanes; ++b) {
          const auto enc =
              model.encrypt_stateless(pts[b], kShardStart + b, step);
          ASSERT_EQ(enc.cycle_hd, ref[b].cycle_hd) << what << " lane " << b;
        }
        EXPECT_EQ(step, regs) << what;
      }
    }
  }
}

}  // namespace
}  // namespace slm::crypto
