// AES-128 reference implementation with the introspection hooks a
// side-channel study needs: per-round states, round keys, S-box/inverse
// S-box access, and the ShiftRows position maps used by last-round CPA
// hypothesis models.
//
// The state is kept as a flat 16-byte array in FIPS-197 order: input byte
// i lands at state[i]; interpreting i = 4*col + row, columns are the
// 32-bit words a word-serial datapath processes per cycle.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace slm::crypto {

using Block = std::array<std::uint8_t, 16>;

/// Parse a 32-hex-digit string into a block (throws on malformed input).
Block block_from_hex(const std::string& hex);
std::string block_to_hex(const Block& b);

class Aes128 {
 public:
  explicit Aes128(const Block& key);

  Block encrypt(const Block& plaintext) const;
  Block decrypt(const Block& ciphertext) const;

  /// States visible at the state register of a hardware implementation:
  /// element 0 is the state after the initial AddRoundKey, element r
  /// (1..10) the state after round r. Element 10 equals the ciphertext.
  std::array<Block, 11> encrypt_states(const Block& plaintext) const;

  /// Packed state columns written by encrypt_columns(): 4 per state for
  /// the 11 states of encrypt_states().
  static constexpr std::size_t kStateWords = 44;

  /// encrypt_states() on packed 32-bit columns, with no byte unpacking:
  /// w[4r + c] is column c of state r, holding FIPS byte 4c + i at bits
  /// 8i..8i+7. w[40..43] is the ciphertext. This is the one T-table
  /// round implementation; encrypt_states() unpacks its output.
  void encrypt_columns(const Block& plaintext, std::uint32_t* w) const;

  /// Round key r (0..10).
  const Block& round_key(std::size_t r) const;

  /// Last round key — the target of the paper's CPA.
  const Block& last_round_key() const { return round_keys_[10]; }

  static std::uint8_t sbox(std::uint8_t x);
  static std::uint8_t inv_sbox(std::uint8_t x);

  /// ShiftRows position map: the byte at position `pos` before ShiftRows
  /// appears at shift_rows_pos(pos) afterwards.
  static std::size_t shift_rows_pos(std::size_t pos);

  /// Inverse map: the byte at `pos` after ShiftRows came from
  /// inv_shift_rows_pos(pos).
  static std::size_t inv_shift_rows_pos(std::size_t pos);

 private:
  std::array<Block, 11> round_keys_{};
  /// Round keys repacked as column words (4 per round, byte r of column c
  /// at bits 8r) for the T-table encrypt rounds.
  std::array<std::uint32_t, 44> round_key_words_{};
};

/// Invert the AES-128 key schedule: reconstruct the master key from any
/// single round key. This is what makes the paper's last-round-key CPA a
/// full key recovery — once k10 is known, the cipher is broken.
Block recover_master_key(const Block& round_key, std::size_t round = 10);

}  // namespace slm::crypto
