#include "crypto/aes_datapath.hpp"

#include "common/error.hpp"

#if defined(__x86_64__)
#define SLM_POPCNT_X86 1
#else
#define SLM_POPCNT_X86 0
#endif

namespace slm::crypto {

namespace {

// Register shares as packed columns, byte i of column c at bits 8i (the
// Aes128::encrypt_columns packing). Only the snapshot boundary converts.
void load_columns(const Block& b, std::uint32_t* w) {
  for (std::size_t c = 0; c < 4; ++c) {
    w[c] = static_cast<std::uint32_t>(b[4 * c]) |
           static_cast<std::uint32_t>(b[4 * c + 1]) << 8 |
           static_cast<std::uint32_t>(b[4 * c + 2]) << 16 |
           static_cast<std::uint32_t>(b[4 * c + 3]) << 24;
  }
}

void store_columns(const std::uint32_t* w, Block& b) {
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < 4; ++i) {
      b[4 * c + i] = static_cast<std::uint8_t>(w[c] >> (8 * i));
    }
  }
}

struct SwarPopcount {
  std::uint32_t operator()(std::uint32_t x) const {
    x = x - ((x >> 1) & 0x55555555u);
    x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
    x = (x + (x >> 4)) & 0x0f0f0f0fu;
    return (x * 0x01010101u) >> 24;
  }
};

struct BuiltinPopcount {
  std::uint32_t operator()(std::uint32_t x) const {
    return static_cast<std::uint32_t>(__builtin_popcount(x));
  }
};

// One encryption on packed columns. Round r writes column c in cycle
// 4r + c (cycle_of). Unmasked, the register takes the state itself.
// Masked, share 0 takes state ^ m_r and share 1 takes m_r, with the 16
// mask bytes of each round drawn in byte order 0..15 before the round's
// first column, as the byte-wise datapath drew them.
template <class Popcount>
[[gnu::always_inline]] inline void word_core(const Aes128& aes,
                                             const Block& plaintext,
                                             std::uint32_t* reg,
                                             std::uint32_t* mask_reg,
                                             Xoshiro256* mask_rng,
                                             std::uint32_t* hd,
                                             Block& ciphertext) {
  const Popcount popcount;
  std::uint32_t w[Aes128::kStateWords];
  aes.encrypt_columns(plaintext, w);
  if (mask_rng == nullptr) {
    // Column c of state r overwrites column c of state r - 1 (of the
    // incoming register for r = 0).
    for (std::size_t c = 0; c < 4; ++c) hd[c] = popcount(reg[c] ^ w[c]);
    for (std::size_t i = 4; i < Aes128::kStateWords; ++i) {
      hd[i] = popcount(w[i - 4] ^ w[i]);
    }
    for (std::size_t c = 0; c < 4; ++c) reg[c] = w[40 + c];
  } else {
    for (std::size_t r = 0; r <= 10; ++r) {
      std::uint32_t m[4] = {0, 0, 0, 0};
      for (std::size_t i = 0; i < 16; ++i) {
        m[i / 4] |= static_cast<std::uint32_t>(
                        static_cast<std::uint8_t>(mask_rng->next()))
                    << (8 * (i % 4));
      }
      for (std::size_t c = 0; c < 4; ++c) {
        const std::uint32_t target = w[4 * r + c] ^ m[c];
        hd[4 * r + c] =
            popcount(reg[c] ^ target) + popcount(mask_reg[c] ^ m[c]);
        reg[c] = target;
        mask_reg[c] = m[c];
      }
    }
  }
  store_columns(w + 40, ciphertext);
}

using CoreFn = void (*)(const Aes128&, const Block&, std::uint32_t*,
                        std::uint32_t*, Xoshiro256*, std::uint32_t*, Block&);

void core_generic(const Aes128& aes, const Block& pt, std::uint32_t* reg,
                  std::uint32_t* mask_reg, Xoshiro256* mask_rng,
                  std::uint32_t* hd, Block& ct) {
  word_core<SwarPopcount>(aes, pt, reg, mask_reg, mask_rng, hd, ct);
}

#if SLM_POPCNT_X86
__attribute__((target("popcnt"))) void core_popcnt(
    const Aes128& aes, const Block& pt, std::uint32_t* reg,
    std::uint32_t* mask_reg, Xoshiro256* mask_rng, std::uint32_t* hd,
    Block& ct) {
  word_core<BuiltinPopcount>(aes, pt, reg, mask_reg, mask_rng, hd, ct);
}
#endif

CoreFn core_fn(AesDatapathModel::HdKernel kernel) {
  if (kernel == AesDatapathModel::HdKernel::kGeneric) return core_generic;
  SLM_REQUIRE(AesDatapathModel::popcnt_supported(),
              "POPCNT kernel requested but this CPU has no POPCNT");
#if SLM_POPCNT_X86
  return core_popcnt;
#else
  return core_generic;
#endif
}

// One trace of the stateless (contract v2) chain: `reg` / `mask_reg`
// hold the incoming register columns and leave with the outgoing ones.
void stateless_trace(const Aes128& aes, const DatapathConfig& cfg,
                     CoreFn core, const Block& plaintext,
                     std::uint64_t trace_index, std::uint32_t* reg,
                     std::uint32_t* mask_reg, std::uint32_t* hd,
                     Block& ciphertext) {
  if (!cfg.carry_previous_state) {
    for (std::size_t c = 0; c < 4; ++c) reg[c] = mask_reg[c] = 0;
  }
  if (!cfg.masked) {
    core(aes, plaintext, reg, mask_reg, nullptr, hd, ciphertext);
    return;
  }
  // Mask draws come from the counter-keyed per-trace stream, so any lane
  // computes any trace's leakage without cross-trace RNG ordering.
  Xoshiro256 mask_rng =
      Xoshiro256::trace_stream(cfg.mask_seed, kTraceDomainMask, trace_index);
  core(aes, plaintext, reg, mask_reg, &mask_rng, hd, ciphertext);
}

}  // namespace

AesDatapathModel::AesDatapathModel(const Block& key, const DatapathConfig& cfg)
    : aes_(key), cfg_(cfg), mask_rng_(cfg.mask_seed) {
  SLM_REQUIRE(cfg_.clock_mhz > 0, "AesDatapathModel: bad clock");
  register_state_.fill(0);
  register_mask_.fill(0);
}

bool AesDatapathModel::popcnt_supported() {
#if SLM_POPCNT_X86
  return __builtin_cpu_supports("popcnt");
#else
  return false;
#endif
}

AesDatapathModel::HdKernel AesDatapathModel::active_hd_kernel() {
  static const HdKernel kernel =
      popcnt_supported() ? HdKernel::kPopcnt : HdKernel::kGeneric;
  return kernel;
}

AesDatapathModel::Encryption AesDatapathModel::encrypt(const Block& plaintext) {
  std::uint32_t reg[4] = {0, 0, 0, 0};
  std::uint32_t mask_reg[4] = {0, 0, 0, 0};
  if (cfg_.carry_previous_state) {
    load_columns(register_state_, reg);
    load_columns(register_mask_, mask_reg);
  }
  Encryption enc;
  enc.plaintext = plaintext;
  core_fn(active_hd_kernel())(aes_, plaintext, reg, mask_reg,
                              cfg_.masked ? &mask_rng_ : nullptr,
                              enc.cycle_hd.data(), enc.ciphertext);
  for (std::size_t c = 0; c < kCycles; ++c) {
    enc.cycle_current[c] =
        cfg_.base_current_a + cfg_.current_per_hd_a * enc.cycle_hd[c];
  }
  store_columns(reg, register_state_);
  store_columns(mask_reg, register_mask_);
  return enc;
}

AesDatapathModel::Encryption AesDatapathModel::encrypt_stateless(
    const Block& plaintext, std::uint64_t trace_index,
    RegisterSnapshot& regs) const {
  std::uint32_t reg[4];
  std::uint32_t mask_reg[4];
  load_columns(regs.register_state, reg);
  load_columns(regs.register_mask, mask_reg);
  Encryption enc;
  enc.plaintext = plaintext;
  stateless_trace(aes_, cfg_, core_fn(active_hd_kernel()), plaintext,
                  trace_index, reg, mask_reg, enc.cycle_hd.data(),
                  enc.ciphertext);
  for (std::size_t c = 0; c < kCycles; ++c) {
    enc.cycle_current[c] =
        cfg_.base_current_a + cfg_.current_per_hd_a * enc.cycle_hd[c];
  }
  store_columns(reg, regs.register_state);
  store_columns(mask_reg, regs.register_mask);
  // The per-trace stream is re-derived for every trace, so the snapshot
  // does not need a meaningful stream position; keep it zeroed.
  regs.mask_rng_state = {};
  return enc;
}

AesDatapathModel::RegisterSnapshot AesDatapathModel::registers_after(
    const Block& plaintext, std::uint64_t trace_index) const {
  // The state register is fully overwritten through rounds 0..10, so the
  // outgoing snapshot is independent of the incoming one: a zero snapshot
  // yields the same result as the true predecessor state.
  RegisterSnapshot regs{};
  (void)encrypt_stateless(plaintext, trace_index, regs);
  return regs;
}

void AesDatapathModel::encrypt_block(const Block* plaintexts,
                                     std::size_t lanes,
                                     std::uint64_t first_trace,
                                     RegisterSnapshot& regs, double* ic,
                                     std::size_t stride, Block* ciphertexts,
                                     HdKernel kernel) const {
  SLM_REQUIRE(lanes <= stride, "encrypt_block: lanes exceed stride");
  if (lanes == 0) return;
  const CoreFn core = core_fn(kernel);
  std::uint32_t reg[4];
  std::uint32_t mask_reg[4];
  load_columns(regs.register_state, reg);
  load_columns(regs.register_mask, mask_reg);
  // The per-cycle current base + k * hd for every HD a cycle can switch
  // (two 32-bit register shares at most): each entry is that exact
  // expression, so a lane's write is one table load.
  constexpr std::uint32_t kMaxHd = 64;
  double current[kMaxHd + 1];
  for (std::uint32_t h = 0; h <= kMaxHd; ++h) {
    current[h] = cfg_.base_current_a + cfg_.current_per_hd_a * h;
  }
  std::uint32_t hd[kCycles];
  for (std::size_t b = 0; b < lanes; ++b) {
    stateless_trace(aes_, cfg_, core, plaintexts[b], first_trace + b, reg,
                    mask_reg, hd, ciphertexts[b]);
    for (std::size_t c = 0; c < kCycles; ++c) {
      ic[c * stride + b] = current[hd[c]];
    }
  }
  store_columns(reg, regs.register_state);
  store_columns(mask_reg, regs.register_mask);
  // The per-trace stream is re-derived for every trace, so the snapshot
  // does not need a meaningful stream position; keep it zeroed.
  regs.mask_rng_state = {};
}

std::size_t AesDatapathModel::cycle_of(std::size_t round, std::size_t col) {
  SLM_REQUIRE(round <= 10 && col < 4, "cycle_of: bad round/col");
  return round * 4 + col;
}

std::size_t AesDatapathModel::leakage_cycle_for_byte(std::size_t pos) {
  SLM_REQUIRE(pos < 16, "leakage_cycle_for_byte: bad position");
  return cycle_of(10, pos / 4);
}

}  // namespace slm::crypto
