// Little-endian binary serialization helpers + CRC-32, used by the
// campaign checkpoint files (core/checkpoint). Doubles round-trip
// bit-exactly (raw IEEE-754 bits), which is what makes resumed
// campaigns indistinguishable from uninterrupted ones.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace slm {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Incremental CRC-32: pass the previous return value (0 to start) to
/// chain spans — crc32_update(crc32_update(0, a, na), b, nb) equals
/// crc32 of a‖b. The trace store uses this to checksum each chunk's
/// slices of several columns without concatenating them. Runs the
/// fastest kernel below that the CPU supports, chosen once per process;
/// every kernel returns the same value.
std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size);

namespace detail {

/// Portable slice-by-16 table kernel (same contract as crc32_update).
std::uint32_t crc32_slice16(std::uint32_t crc, const std::uint8_t* data,
                            std::size_t size);

/// PCLMULQDQ carry-less-multiply folding kernel (same contract as
/// crc32_update). Call only when crc32_pclmul_supported().
std::uint32_t crc32_pclmul(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t size);

/// True on x86-64 CPUs with PCLMULQDQ and SSE4.1.
bool crc32_pclmul_supported();

}  // namespace detail

/// Byte count of the framed-file envelope (magic, version, length, crc).
inline constexpr std::size_t kFramedEnvelopeBytes = 8 + 4 + 8 + 4;

/// The one commit step for files that must never appear torn: `fill`
/// streams the body into `<path>.tmp`, which is flushed and checked (a
/// short write, e.g. ENOSPC, throws and leaves `path` untouched) and then
/// atomically renamed over `path`. A kill at any instant leaves either
/// the previous complete file or the new complete file. Throws
/// slm::Error ("<context>: cannot write / short write / atomic rename
/// ...") on I/O failure.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& fill,
                       const std::string& context);

/// Shared framed-file envelope for the binary state formats (`SLMCKPT1`
/// campaign checkpoints, `SLMTRC1` trace stores):
///
///   magic   8 bytes
///   version u32      readers reject other versions (no silent migration)
///   length  u64      payload byte count
///   crc     u32      CRC-32 of the payload
///   payload
///
/// The payload is the concatenation of `payload` spans, in order; each
/// span is written straight from the caller's memory, so a multi-column
/// file needs no assembled copy. The file is committed by
/// write_file_atomic. Returns the total byte count written.
std::size_t write_framed_file(
    const std::string& path, const char* magic8, std::uint32_t version,
    std::initializer_list<std::span<const std::uint8_t>> payload,
    const std::string& context);

/// Read and validate a framed file. Returns nullopt when the file does
/// not exist; throws slm::Error with a `context`-prefixed message on bad
/// magic, version mismatch, truncated payload, or CRC failure. The
/// returned bytes are the CRC-verified payload.
std::optional<std::vector<std::uint8_t>> read_framed_file(
    const std::string& path, const char* magic8, std::uint32_t version,
    const std::string& context);

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void put_f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }

  void put_bytes(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }

  void put_f64_vector(const std::vector<double>& v) {
    put_u64(v.size());
    for (const double x : v) put_f64(x);
  }

  template <std::size_t N>
  void put_u64_array(const std::array<std::uint64_t, N>& a) {
    for (const std::uint64_t x : a) put_u64(x);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span; throws slm::Error on overrun
/// (a truncated or corrupt checkpoint must fail loudly, never misparse).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t get_u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t get_u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t get_u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  void get_bytes(std::uint8_t* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::vector<double> get_f64_vector() {
    const std::uint64_t n = get_u64();
    SLM_REQUIRE(n <= remaining() / 8, "ByteReader: vector length overruns");
    std::vector<double> v(n);
    for (auto& x : v) x = get_f64();
    return v;
  }

  template <std::size_t N>
  std::array<std::uint64_t, N> get_u64_array() {
    std::array<std::uint64_t, N> a{};
    for (auto& x : a) x = get_u64();
    return a;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    SLM_REQUIRE(size_ - pos_ >= n, "ByteReader: truncated input");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace slm
