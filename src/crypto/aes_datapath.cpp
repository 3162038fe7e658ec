#include "crypto/aes_datapath.hpp"

#include "common/dispatch.hpp"
#include "common/error.hpp"

#if defined(__x86_64__)
#define SLM_AESNI_X86 1
#include <immintrin.h>
#else
#define SLM_AESNI_X86 0
#endif

namespace slm::crypto {

namespace {

using Level = AesDatapathModel::Level;

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

std::uint32_t popcount32(std::uint32_t x) {
  x = x - ((x >> 1) & 0x55555555u);
  x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
  x = (x + (x >> 4)) & 0x0f0f0f0fu;
  return (x * 0x01010101u) >> 24;
}

// The 16 mask bytes of one round, drawn in byte order 0..15 and packed
// the way the state is packed.
void draw_mask(Xoshiro256& mask_rng, std::uint32_t* m) {
  m[0] = m[1] = m[2] = m[3] = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    m[i / 4] |= static_cast<std::uint32_t>(
                    static_cast<std::uint8_t>(mask_rng.next()))
                << (8 * (i % 4));
  }
}

// The portable level: one encryption on packed columns from the T-table
// rounds. Round r writes column c in cycle 4r + c (cycle_of). Unmasked,
// the register takes the state itself. Masked, share 0 takes state ^ m_r
// and share 1 takes m_r, with the 16 mask bytes of each round drawn
// before the round's first column, as the byte-wise datapath drew them.
void core_portable(const Aes128& aes, const Block& plaintext,
                   std::uint32_t* reg, std::uint32_t* mask_reg,
                   Xoshiro256* mask_rng, std::uint32_t* hd,
                   Block& ciphertext) {
  std::uint32_t w[Aes128::kStateWords];
  aes.encrypt_columns(plaintext, w);
  if (mask_rng == nullptr) {
    // Column c of state r overwrites column c of state r - 1 (of the
    // incoming register for r = 0).
    for (std::size_t c = 0; c < 4; ++c) hd[c] = popcount32(reg[c] ^ w[c]);
    for (std::size_t i = 4; i < Aes128::kStateWords; ++i) {
      hd[i] = popcount32(w[i - 4] ^ w[i]);
    }
    for (std::size_t c = 0; c < 4; ++c) reg[c] = w[40 + c];
  } else {
    for (std::size_t r = 0; r <= 10; ++r) {
      std::uint32_t m[4];
      draw_mask(*mask_rng, m);
      for (std::size_t c = 0; c < 4; ++c) {
        const std::uint32_t target = w[4 * r + c] ^ m[c];
        hd[4 * r + c] =
            popcount32(reg[c] ^ target) + popcount32(mask_reg[c] ^ m[c]);
        reg[c] = target;
        mask_reg[c] = m[c];
      }
    }
  }
  store_columns(w + 40, ciphertext);
}

#if SLM_AESNI_X86
// The AES-NI level. FIPS byte order is xmm byte order, so dword c of a
// state vector is packed column c. The targets enable AES-NI and AVX2
// only: with no FMA, base + k * hd stays a multiply and an add, each
// rounded as the scalar expression rounds.
#define SLM_AESNI_TARGET __attribute__((target("aes,avx2")))

SLM_AESNI_TARGET inline __m128i load_block(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

SLM_AESNI_TARGET inline void load_round_keys(const Aes128& aes,
                                             __m128i* rk) {
  for (std::size_t r = 0; r <= 10; ++r) {
    rk[r] = load_block(aes.round_key(r).data());
  }
}

// State r (1..10) from state r - 1.
SLM_AESNI_TARGET inline __m128i aes_round(__m128i s, const __m128i* rk,
                                          std::size_t r) {
  return r < 10 ? _mm_aesenc_si128(s, rk[r]) : _mm_aesenclast_si128(s, rk[r]);
}

// Per-dword popcount: nibble counts by table shuffle, then byte pairs
// and word pairs summed by multiply-add against ones.
SLM_AESNI_TARGET inline __m128i popcount_epi32(__m128i x) {
  const __m128i lut =
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m128i nibble = _mm_set1_epi8(0x0f);
  const __m128i lo = _mm_shuffle_epi8(lut, _mm_and_si128(x, nibble));
  const __m128i hi =
      _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(x, 4), nibble));
  const __m128i pairs =
      _mm_maddubs_epi16(_mm_add_epi8(lo, hi), _mm_set1_epi8(1));
  return _mm_madd_epi16(pairs, _mm_set1_epi16(1));
}

// The one-trace unmasked path (masked traces run core_portable, whose
// mask mixing is the only copy).
SLM_AESNI_TARGET void core_aesni(const Aes128& aes, const Block& plaintext,
                                 std::uint32_t* reg, std::uint32_t* hd,
                                 Block& ciphertext) {
  __m128i rk[11];
  load_round_keys(aes, rk);
  __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(reg));
  __m128i s = _mm_xor_si128(load_block(plaintext.data()), rk[0]);
  for (std::size_t round = 0; round <= 10; ++round) {
    if (round > 0) s = aes_round(s, rk, round);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(hd + 4 * round),
                     popcount_epi32(_mm_xor_si128(r, s)));
    r = s;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(reg), s);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(ciphertext.data()), s);
}

// The current fold of encrypt_block as four-lane constants.
struct Fold4 {
  __m256d base;   // base_current_a
  __m256d k;      // current_per_hd_a
  __m256d add;    // the fold's add
  __m256d scale;  // the fold's scale
};

// One round's four cycles for four lanes: p[j] holds lane j's four
// column HDs. Transposed, vector c holds cycle 4 * round + c of lanes
// b0..b0 + 3, written as ((base + k * hd) + add) * scale with one store.
SLM_AESNI_TARGET inline void store_round(const __m128i* p, std::size_t round,
                                         const Fold4& f, double* ic,
                                         std::size_t stride) {
  const __m128i t0 = _mm_unpacklo_epi32(p[0], p[1]);
  const __m128i t1 = _mm_unpacklo_epi32(p[2], p[3]);
  const __m128i t2 = _mm_unpackhi_epi32(p[0], p[1]);
  const __m128i t3 = _mm_unpackhi_epi32(p[2], p[3]);
  const __m128i cyc[4] = {
      _mm_unpacklo_epi64(t0, t1), _mm_unpackhi_epi64(t0, t1),
      _mm_unpacklo_epi64(t2, t3), _mm_unpackhi_epi64(t2, t3)};
  for (std::size_t c = 0; c < 4; ++c) {
    const __m256d prod = _mm256_mul_pd(_mm256_cvtepi32_pd(cyc[c]), f.k);
    const __m256d cur = _mm256_add_pd(_mm256_add_pd(f.base, prod), f.add);
    _mm256_storeu_pd(ic + (4 * round + c) * stride,
                     _mm256_mul_pd(cur, f.scale));
  }
}

// The unmasked block body, four traces at a time. A trace's incoming
// register is the previous trace's ciphertext (zero without carry), so
// the four lanes' rounds are independent; only round 0's HDs wait for
// the lane before. Runs the largest multiple of four lanes and returns
// that count; `reg` leaves holding the last of those traces' ciphertext.
SLM_AESNI_TARGET std::size_t block4_aesni(
    const Aes128& aes, bool carry, double base_current, double current_per_hd,
    const AesDatapathModel::CurrentFold& fold, const Block* plaintexts,
    std::size_t lanes, std::uint32_t* reg, double* ic, std::size_t stride,
    Block* ciphertexts) {
  __m128i rk[11];
  load_round_keys(aes, rk);
  const Fold4 f{_mm256_set1_pd(base_current), _mm256_set1_pd(current_per_hd),
                _mm256_set1_pd(fold.add), _mm256_set1_pd(fold.scale)};
  const __m128i zero = _mm_setzero_si128();
  __m128i r = _mm_loadu_si128(reinterpret_cast<const __m128i*>(reg));
  const std::size_t body = lanes & ~std::size_t{3};
  for (std::size_t b0 = 0; b0 < body; b0 += 4) {
    __m128i s[4];
    __m128i first[4];
    __m128i p[4];
    for (std::size_t j = 0; j < 4; ++j) {
      s[j] = _mm_xor_si128(load_block(plaintexts[b0 + j].data()), rk[0]);
      first[j] = s[j];
    }
    for (std::size_t round = 1; round <= 10; ++round) {
      for (std::size_t j = 0; j < 4; ++j) {
        const __m128i next = aes_round(s[j], rk, round);
        p[j] = popcount_epi32(_mm_xor_si128(s[j], next));
        s[j] = next;
      }
      store_round(p, round, f, ic + b0, stride);
    }
    p[0] = popcount_epi32(_mm_xor_si128(carry ? r : zero, first[0]));
    for (std::size_t j = 1; j < 4; ++j) {
      p[j] = popcount_epi32(_mm_xor_si128(carry ? s[j - 1] : zero, first[j]));
    }
    store_round(p, 0, f, ic + b0, stride);
    for (std::size_t j = 0; j < 4; ++j) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(ciphertexts[b0 + j].data()),
                       s[j]);
    }
    r = s[3];
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(reg), r);
  return body;
}
#endif

// One encryption at `level`. Masked, both levels run the portable core.
void core(const Aes128& aes, [[maybe_unused]] Level level,
          const Block& plaintext, std::uint32_t* reg, std::uint32_t* mask_reg,
          Xoshiro256* mask_rng, std::uint32_t* hd, Block& ciphertext) {
#if SLM_AESNI_X86
  if (level == Level::kAesni && mask_rng == nullptr) {
    core_aesni(aes, plaintext, reg, hd, ciphertext);
    return;
  }
#endif
  core_portable(aes, plaintext, reg, mask_reg, mask_rng, hd, ciphertext);
}

// One trace of the stateless (contract v2) chain: `reg` / `mask_reg`
// hold the incoming register columns and leave with the outgoing ones.
void stateless_trace(const Aes128& aes, const DatapathConfig& cfg,
                     Level level, const Block& plaintext,
                     std::uint64_t trace_index, std::uint32_t* reg,
                     std::uint32_t* mask_reg, std::uint32_t* hd,
                     Block& ciphertext) {
  if (!cfg.carry_previous_state) {
    for (std::size_t c = 0; c < 4; ++c) reg[c] = mask_reg[c] = 0;
  }
  if (!cfg.masked) {
    core(aes, level, plaintext, reg, mask_reg, nullptr, hd, ciphertext);
    return;
  }
  // Mask draws come from the counter-keyed per-trace stream, so any lane
  // computes any trace's leakage without cross-trace RNG ordering.
  Xoshiro256 mask_rng =
      Xoshiro256::trace_stream(cfg.mask_seed, kTraceDomainMask, trace_index);
  core(aes, level, plaintext, reg, mask_reg, &mask_rng, hd, ciphertext);
}

}  // namespace

AesDatapathModel::AesDatapathModel(const Block& key, const DatapathConfig& cfg)
    : aes_(key), cfg_(cfg), mask_rng_(cfg.mask_seed) {
  SLM_REQUIRE(cfg_.clock_mhz > 0, "AesDatapathModel: bad clock");
  register_state_.fill(0);
  register_mask_.fill(0);
}

bool AesDatapathModel::aesni_supported() {
#if SLM_AESNI_X86
  static const bool supported =
      __builtin_cpu_supports("aes") && __builtin_cpu_supports("avx2");
  return supported;
#else
  return false;
#endif
}

AesDatapathModel::Level AesDatapathModel::active_level() {
  return aesni_supported() && active_dispatch() >= DispatchLevel::kAvx2
             ? Level::kAesni
             : Level::kPortable;
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
  core(aes_, active_level(), plaintext, reg, mask_reg,
       cfg_.masked ? &mask_rng_ : nullptr, enc.cycle_hd.data(),
       enc.ciphertext);
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
  stateless_trace(aes_, cfg_, active_level(), plaintext, trace_index, reg,
                  mask_reg, enc.cycle_hd.data(), enc.ciphertext);
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
  // Round 10 overwrites every register column, so the outgoing shares
  // depend only on the ciphertext and, masked, on round 10's mask: the
  // trace's draws 160..175, after the 16 of each of rounds 0..9.
  RegisterSnapshot regs{};
  regs.register_state = aes_.encrypt(plaintext);
  if (cfg_.masked) {
    Xoshiro256 mask_rng =
        Xoshiro256::trace_stream(cfg_.mask_seed, kTraceDomainMask, trace_index);
    for (std::size_t i = 0; i < 10 * 16; ++i) (void)mask_rng.next();
    for (std::size_t i = 0; i < 16; ++i) {
      regs.register_mask[i] = static_cast<std::uint8_t>(mask_rng.next());
      regs.register_state[i] ^= regs.register_mask[i];
    }
  }
  return regs;
}

void AesDatapathModel::encrypt_block(const Block* plaintexts,
                                     std::size_t lanes,
                                     std::uint64_t first_trace,
                                     RegisterSnapshot& regs, double* ic,
                                     std::size_t stride, Block* ciphertexts,
                                     const CurrentFold& fold,
                                     Level level) const {
  SLM_REQUIRE(lanes <= stride, "encrypt_block: lanes exceed stride");
  SLM_REQUIRE(level == Level::kPortable || aesni_supported(),
              "AES-NI victim level requested but this CPU lacks AES-NI/AVX2");
  if (lanes == 0) return;
  std::uint32_t reg[4];
  std::uint32_t mask_reg[4];
  load_columns(regs.register_state, reg);
  load_columns(regs.register_mask, mask_reg);
  std::size_t b = 0;
#if SLM_AESNI_X86
  if (level == Level::kAesni && !cfg_.masked) {
    // Each trace of the body starts as stateless_trace would start it.
    if (!cfg_.carry_previous_state) {
      for (std::size_t c = 0; c < 4; ++c) reg[c] = mask_reg[c] = 0;
    }
    b = block4_aesni(aes_, cfg_.carry_previous_state, cfg_.base_current_a,
                     cfg_.current_per_hd_a, fold, plaintexts, lanes, reg, ic,
                     stride, ciphertexts);
  }
#endif
  // The folded per-cycle current ((base + k * hd) + add) * scale for
  // every HD a cycle can switch (two 32-bit register shares at most):
  // each entry is that exact sequence of roundings, so a lane's write is
  // one table load.
  constexpr std::uint32_t kMaxHd = 64;
  double current[kMaxHd + 1];
  for (std::uint32_t h = 0; h <= kMaxHd; ++h) {
    current[h] = cfg_.base_current_a + cfg_.current_per_hd_a * h;
    current[h] += fold.add;
    current[h] *= fold.scale;
  }
  std::uint32_t hd[kCycles];
  for (; b < lanes; ++b) {
    stateless_trace(aes_, cfg_, level, plaintexts[b], first_trace + b, reg,
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
