#include "common/binio.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#if defined(__x86_64__)
#define SLM_CRC_X86 1
#include <immintrin.h>
#else
#define SLM_CRC_X86 0
#endif

namespace slm {

namespace {

// kCrc32Tables[0] is the classic bytewise table; kCrc32Tables[k][i] is
// the CRC state after byte i is followed by k zero bytes, so sixteen
// lookups advance the state over one 16-byte block.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if SLM_CRC_X86
// Folding constants for the reflected polynomial 0xEDB88320, from Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009): k1/k2 fold 512 bits, k3/k4 fold 128 bits,
// k5 folds 64 to 32 bits, and the last pair is (P', mu) for the Barrett
// reduction.
alignas(16) constexpr std::uint64_t kFold512[2] = {0x0154442bd4,
                                                   0x01c6e41596};
alignas(16) constexpr std::uint64_t kFold128[2] = {0x01751997d0,
                                                   0x00ccaa009e};
alignas(16) constexpr std::uint64_t kFold64[2] = {0x0163cd6124, 0};
alignas(16) constexpr std::uint64_t kBarrett[2] = {0x01db710641,
                                                   0x01f7011641};

__attribute__((target("pclmul,sse4.1"))) inline __m128i load128(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// One 128-bit fold step: both 64-bit halves of x times k, xor next.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold128(
    __m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Raw CRC state (pre- and post-inverted by the caller) over `size`
// bytes; requires size >= 64 and size % 16 == 0.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold_pclmul(
    std::uint32_t state, const std::uint8_t* p, std::size_t size) {
  __m128i x1 =
      _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  size -= 64;

  // Four independent 128-bit lanes hide the multiplier latency.
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold512));
  while (size >= 64) {
    x1 = fold128(x1, k, load128(p));
    x2 = fold128(x2, k, load128(p + 16));
    x3 = fold128(x3, k, load128(p + 32));
    x4 = fold128(x4, k, load128(p + 48));
    p += 64;
    size -= 64;
  }

  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold128));
  x1 = fold128(x1, k, x2);
  x1 = fold128(x1, k, x3);
  x1 = fold128(x1, k, x4);
  while (size >= 16) {
    x1 = fold128(x1, k, load128(p));
    p += 16;
    size -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i t = _mm_clmulepi64_si128(x1, k, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);

  // Barrett reduction to 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32_slice16(std::uint32_t crc, const std::uint8_t* data,
                            std::size_t size) {
  const Crc32Tables& t = kCrc32Tables;
  // Byte j of a 16-byte block still has 15 - j bytes to travel.
  const auto lookup4 = [&t](std::uint32_t w, std::size_t k) {
    return t[k][w & 0xffu] ^ t[k - 1][(w >> 8) & 0xffu] ^
           t[k - 2][(w >> 16) & 0xffu] ^ t[k - 3][w >> 24];
  };
  std::uint32_t c = ~crc;
  while (size >= 16) {
    c = lookup4(load_le32(data) ^ c, 15) ^ lookup4(load_le32(data + 4), 11) ^
        lookup4(load_le32(data + 8), 7) ^ lookup4(load_le32(data + 12), 3);
    data += 16;
    size -= 16;
  }
  for (; size > 0; --size) {
    c = t[0][(c ^ *data++) & 0xffu] ^ (c >> 8);
  }
  return ~c;
}

std::uint32_t crc32_pclmul(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
#if SLM_CRC_X86
  // Below 64 bytes the fold's setup and reduction cost more than the
  // table walk; the sub-16-byte tail always goes to the table.
  if (size < 64) return crc32_slice16(crc, data, size);
  const std::size_t bulk = size & ~std::size_t{15};
  crc = ~crc32_fold_pclmul(~crc, data, bulk);
  return crc32_slice16(crc, data + bulk, size - bulk);
#else
  return crc32_slice16(crc, data, size);
#endif
}

bool crc32_pclmul_supported() {
#if SLM_CRC_X86
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size) {
  using Kernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                   std::size_t);
  static const Kernel kernel = detail::crc32_pclmul_supported()
                                   ? detail::crc32_pclmul
                                   : detail::crc32_slice16;
  return kernel(crc, data, size);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_update(0, data, size);
}

std::size_t write_framed_file(
    const std::string& path, const char* magic8, std::uint32_t version,
    std::initializer_list<std::span<const std::uint8_t>> payload,
    const std::string& context) {
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  for (const std::span<const std::uint8_t> span : payload) {
    length += span.size();
    crc = crc32_update(crc, span.data(), span.size());
  }
  ByteWriter envelope;
  envelope.put_bytes(reinterpret_cast<const std::uint8_t*>(magic8), 8);
  envelope.put_u32(version);
  envelope.put_u64(length);
  envelope.put_u32(crc);

  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    SLM_REQUIRE(static_cast<bool>(os),
                context + ": cannot write '" + tmp_path + "'");
    const auto write = [&os](std::span<const std::uint8_t> bytes) {
      os.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    };
    write(envelope.bytes());
    for (const std::span<const std::uint8_t> span : payload) write(span);
    os.flush();
    SLM_REQUIRE(static_cast<bool>(os),
                context + ": short write to '" + tmp_path + "'");
  }
  // Atomic replace: a reader (or a crash) sees either the old complete
  // file or the new complete file, never a torn one.
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  SLM_REQUIRE(!ec, context + ": atomic rename to '" + path + "' failed");
  return envelope.size() + length;
}

std::optional<std::vector<std::uint8_t>> read_framed_file(
    const std::string& path, const char* magic8, std::uint32_t version,
    const std::string& context) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::streamoff file_size = is.tellg();
  is.seekg(0);
  SLM_REQUIRE(file_size >= 0 && static_cast<bool>(is),
              context + ": cannot read '" + path + "'");

  // A file shorter than the envelope dies in the bounds-checked
  // ByteReader below, on the first field it cannot hold.
  std::uint8_t head[kFramedEnvelopeBytes] = {};
  is.read(reinterpret_cast<char*>(head), sizeof head);
  ByteReader in(head, static_cast<std::size_t>(is.gcount()));
  char magic[8] = {};
  in.get_bytes(reinterpret_cast<std::uint8_t*>(magic), sizeof magic);
  SLM_REQUIRE(std::equal(magic, magic + sizeof magic, magic8),
              context + ": bad magic in '" + path + "'");
  const std::uint32_t file_version = in.get_u32();
  SLM_REQUIRE(file_version == version,
              context + ": unsupported version " +
                  std::to_string(file_version) + " in '" + path +
                  "' (expected " + std::to_string(version) + ")");
  const std::uint64_t length = in.get_u64();
  const std::uint32_t stored_crc = in.get_u32();
  SLM_REQUIRE(length == static_cast<std::uint64_t>(file_size) -
                            kFramedEnvelopeBytes,
              context + ": truncated payload in '" + path + "'");

  std::vector<std::uint8_t> payload(length);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(length));
  SLM_REQUIRE(static_cast<std::uint64_t>(is.gcount()) == length,
              context + ": truncated payload in '" + path + "'");
  SLM_REQUIRE(crc32(payload.data(), payload.size()) == stored_crc,
              context + ": CRC mismatch in '" + path +
                  "' — file is corrupt");
  return payload;
}

}  // namespace slm
