#include "crypto/aes128.hpp"

#include "common/error.hpp"

namespace slm::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e,
    0x81, 0xf3, 0xd7, 0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87,
    0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32,
    0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16,
    0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50,
    0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05,
    0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41,
    0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8,
    0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89,
    0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59,
    0x27, 0x80, 0xec, 0x5f, 0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d,
    0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0, 0xe0, 0x3b, 0x4d,
    0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63,
    0x55, 0x21, 0x0c, 0x7d};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  while (b != 0) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// Fused SubBytes+MixColumns tables for the encrypt rounds. A state column
// is packed as a 32-bit word with byte r (FIPS position 4c+r) at bits
// 8r..8r+7; Te_r[x] holds the column contribution of a post-ShiftRows
// byte a_r = S(x): byte i of Te_r[x] is gmul(S(x), M[i][r]) for the
// MixColumns matrix M. All arithmetic is exact GF(2^8), so the states
// are bit-identical to the byte-wise reference (the NIST vectors in
// aes128_test pin this).
struct TeTables {
  std::uint32_t t[4][256];
};

constexpr TeTables make_te_tables() {
  TeTables te{};
  constexpr std::uint8_t m[4][4] = {
      {2, 3, 1, 1}, {1, 2, 3, 1}, {1, 1, 2, 3}, {3, 1, 1, 2}};
  for (int x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    for (int r = 0; r < 4; ++r) {
      std::uint32_t w = 0;
      for (int i = 0; i < 4; ++i) {
        w |= static_cast<std::uint32_t>(gmul(s, m[i][r])) << (8 * i);
      }
      te.t[r][x] = w;
    }
  }
  return te;
}

constexpr TeTables kTe = make_te_tables();

constexpr std::uint32_t pack_column(const Block& b, std::size_t c) {
  return static_cast<std::uint32_t>(b[4 * c + 0]) |
         (static_cast<std::uint32_t>(b[4 * c + 1]) << 8) |
         (static_cast<std::uint32_t>(b[4 * c + 2]) << 16) |
         (static_cast<std::uint32_t>(b[4 * c + 3]) << 24);
}

void unpack_columns(const std::uint32_t w[4], Block& b) {
  for (std::size_t c = 0; c < 4; ++c) {
    b[4 * c + 0] = static_cast<std::uint8_t>(w[c]);
    b[4 * c + 1] = static_cast<std::uint8_t>(w[c] >> 8);
    b[4 * c + 2] = static_cast<std::uint8_t>(w[c] >> 16);
    b[4 * c + 3] = static_cast<std::uint8_t>(w[c] >> 24);
  }
}

void inv_sub_bytes(Block& s) {
  for (auto& b : s) b = kInvSbox[b];
}

void inv_shift_rows(Block& s) {
  Block t = s;
  for (std::size_t pos = 0; pos < 16; ++pos) {
    t[pos] = s[Aes128::shift_rows_pos(pos)];
  }
  s = t;
}

void inv_mix_columns(Block& s) {
  for (std::size_t c = 0; c < 4; ++c) {
    const std::uint8_t a0 = s[4 * c + 0], a1 = s[4 * c + 1],
                       a2 = s[4 * c + 2], a3 = s[4 * c + 3];
    s[4 * c + 0] = static_cast<std::uint8_t>(gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^
                                             gmul(a2, 0x0d) ^ gmul(a3, 0x09));
    s[4 * c + 1] = static_cast<std::uint8_t>(gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^
                                             gmul(a2, 0x0b) ^ gmul(a3, 0x0d));
    s[4 * c + 2] = static_cast<std::uint8_t>(gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^
                                             gmul(a2, 0x0e) ^ gmul(a3, 0x0b));
    s[4 * c + 3] = static_cast<std::uint8_t>(gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^
                                             gmul(a2, 0x09) ^ gmul(a3, 0x0e));
  }
}

void add_round_key(Block& s, const Block& k) {
  for (std::size_t i = 0; i < 16; ++i) s[i] ^= k[i];
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Block block_from_hex(const std::string& hex) {
  SLM_REQUIRE(hex.size() == 32, "block_from_hex: need 32 hex digits");
  Block b{};
  for (std::size_t i = 0; i < 16; ++i) {
    const int hi = hex_digit(hex[2 * i]);
    const int lo = hex_digit(hex[2 * i + 1]);
    SLM_REQUIRE(hi >= 0 && lo >= 0, "block_from_hex: invalid hex digit");
    b[i] = static_cast<std::uint8_t>(hi * 16 + lo);
  }
  return b;
}

std::string block_to_hex(const Block& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(32);
  for (std::uint8_t byte : b) {
    s.push_back(digits[byte >> 4]);
    s.push_back(digits[byte & 0xf]);
  }
  return s;
}

Aes128::Aes128(const Block& key) {
  round_keys_[0] = key;
  for (std::size_t r = 1; r <= 10; ++r) {
    const Block& prev = round_keys_[r - 1];
    Block& rk = round_keys_[r];
    // First word: RotWord + SubWord + Rcon.
    rk[0] = static_cast<std::uint8_t>(prev[0] ^ kSbox[prev[13]] ^
                                      kRcon[r - 1]);
    rk[1] = static_cast<std::uint8_t>(prev[1] ^ kSbox[prev[14]]);
    rk[2] = static_cast<std::uint8_t>(prev[2] ^ kSbox[prev[15]]);
    rk[3] = static_cast<std::uint8_t>(prev[3] ^ kSbox[prev[12]]);
    for (std::size_t i = 4; i < 16; ++i) {
      rk[i] = static_cast<std::uint8_t>(prev[i] ^ rk[i - 4]);
    }
  }
  for (std::size_t r = 0; r <= 10; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      round_key_words_[4 * r + c] = pack_column(round_keys_[r], c);
    }
  }
}

Block Aes128::encrypt(const Block& plaintext) const {
  std::uint32_t w[kStateWords];
  encrypt_columns(plaintext, w);
  Block out;
  unpack_columns(w + 40, out);
  return out;
}

std::array<Block, 11> Aes128::encrypt_states(const Block& plaintext) const {
  std::uint32_t w[kStateWords];
  encrypt_columns(plaintext, w);
  std::array<Block, 11> states;
  for (std::size_t r = 0; r <= 10; ++r) unpack_columns(w + 4 * r, states[r]);
  return states;
}

void Aes128::encrypt_columns(const Block& plaintext, std::uint32_t* w) const {
  for (std::size_t c = 0; c < 4; ++c) {
    w[c] = pack_column(plaintext, c) ^ round_key_words_[c];
  }
  for (std::size_t r = 1; r <= 9; ++r) {
    // Output column c gathers post-ShiftRows byte a_i from pre-round byte
    // s[4*((c+i)%4)+i] (row i rotates left by i), i.e. byte i of column
    // (c+i)%4 of the previous state.
    const std::uint32_t* in = w + 4 * (r - 1);
    std::uint32_t* out = w + 4 * r;
    for (std::size_t c = 0; c < 4; ++c) {
      out[c] = kTe.t[0][in[c] & 0xff] ^
               kTe.t[1][(in[(c + 1) & 3] >> 8) & 0xff] ^
               kTe.t[2][(in[(c + 2) & 3] >> 16) & 0xff] ^
               kTe.t[3][(in[(c + 3) & 3] >> 24) & 0xff] ^
               round_key_words_[4 * r + c];
    }
  }
  // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
  const std::uint32_t* in = w + 36;
  for (std::size_t c = 0; c < 4; ++c) {
    std::uint32_t col = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      col |= static_cast<std::uint32_t>(kSbox[(in[(c + i) & 3] >> (8 * i)) &
                                              0xff])
             << (8 * i);
    }
    w[40 + c] = col ^ round_key_words_[40 + c];
  }
}

Block Aes128::decrypt(const Block& ciphertext) const {
  Block s = ciphertext;
  add_round_key(s, round_keys_[10]);
  inv_shift_rows(s);
  inv_sub_bytes(s);
  for (std::size_t r = 9; r >= 1; --r) {
    add_round_key(s, round_keys_[r]);
    inv_mix_columns(s);
    inv_shift_rows(s);
    inv_sub_bytes(s);
  }
  add_round_key(s, round_keys_[0]);
  return s;
}

const Block& Aes128::round_key(std::size_t r) const {
  SLM_REQUIRE(r <= 10, "round_key: r out of range");
  return round_keys_[r];
}

std::uint8_t Aes128::sbox(std::uint8_t x) { return kSbox[x]; }
std::uint8_t Aes128::inv_sbox(std::uint8_t x) { return kInvSbox[x]; }

std::size_t Aes128::shift_rows_pos(std::size_t pos) {
  // pos = 4*col + row; row r rotates left by r columns.
  const std::size_t row = pos % 4;
  const std::size_t col = pos / 4;
  const std::size_t new_col = (col + 4 - row) % 4;
  return 4 * new_col + row;
}

std::size_t Aes128::inv_shift_rows_pos(std::size_t pos) {
  const std::size_t row = pos % 4;
  const std::size_t col = pos / 4;
  const std::size_t old_col = (col + row) % 4;
  return 4 * old_col + row;
}

Block recover_master_key(const Block& round_key, std::size_t round) {
  SLM_REQUIRE(round <= 10, "recover_master_key: round out of range");
  Block rk = round_key;
  // Walk the schedule backwards: given round key r, words w[4r..4r+3],
  //   prev[3] = w[3] ^ w[2], prev[2] = w[2] ^ w[1], prev[1] = w[1] ^ w[0]
  //   prev[0] = w[0] ^ SubWord(RotWord(prev[3])) ^ Rcon[r-1]
  for (std::size_t r = round; r >= 1; --r) {
    Block prev;
    for (std::size_t w = 3; w >= 1; --w) {
      for (std::size_t i = 0; i < 4; ++i) {
        prev[4 * w + i] =
            static_cast<std::uint8_t>(rk[4 * w + i] ^ rk[4 * (w - 1) + i]);
      }
    }
    prev[0] = static_cast<std::uint8_t>(rk[0] ^ kSbox[prev[13]] ^
                                        kRcon[r - 1]);
    prev[1] = static_cast<std::uint8_t>(rk[1] ^ kSbox[prev[14]]);
    prev[2] = static_cast<std::uint8_t>(rk[2] ^ kSbox[prev[15]]);
    prev[3] = static_cast<std::uint8_t>(rk[3] ^ kSbox[prev[12]]);
    rk = prev;
  }
  return rk;
}

}  // namespace slm::crypto
