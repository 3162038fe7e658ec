// The classic one-table bytewise CRC-32 loop (reflected polynomial
// 0xEDB88320). It is the reference the dispatched kernels in
// common/binio must reproduce bit for bit (binio_framed_test) and the
// baseline they are timed against (bench_micro's BM_Crc32 family).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace slm::reference {

inline std::uint32_t crc32_bytewise(std::uint32_t crc,
                                    const std::uint8_t* data,
                                    std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace slm::reference
