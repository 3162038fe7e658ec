// Capture-once, replay-many trace store (docs/STORE.md): a CRC'd,
// chunked, columnar `SLMTRC1` file holding one campaign's sensor
// readings, plaintexts and ciphertexts, framed by the same
// `common/binio` envelope as `SLMCKPT1` checkpoints. The header carries a fingerprint of
// (seed, rng_contract, trace_count, attack/sensor config hash) so a
// replayed attack refuses stores captured under a different campaign,
// and the readings column is 8-byte aligned in the file so the mmap
// reader hands `const double*` rows straight to
// `sca::XorClassCpa::add_block` / `sca::MultiByteCpa::add_block` with
// zero copies. Because the CPA accumulators are exact integer sums
// (see sca/cpa.hpp's partition-invariance note), folding the stored
// readings reproduces the live campaign's results bit-for-bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/error.hpp"
#include "crypto/aes128.hpp"

namespace slm::store {

/// `SLMTRC1` wire magic: seven ASCII characters NUL-padded to the
/// envelope's eight bytes (the sibling `SLMCKPT1` uses all eight).
inline constexpr char kStoreMagic[] = "SLMTRC1";

/// `SLMTRC1` wire version. Version 2 marks stores whose sensor bits came
/// from the counter-keyed pre-passes and whose TVLA traces come from the
/// TVLA trace domain; readers refuse version 1 by name.
inline constexpr std::uint32_t kStoreVersion = 2;

/// A store file is structurally unusable: missing, truncated, wrong
/// magic/version, envelope or chunk CRC failure, or a malformed header.
/// CLI exit code 13.
class StoreFormatError : public Error {
 public:
  using Error::Error;
};

/// A structurally valid store whose fingerprint does not match the
/// campaign the replay was configured for. CLI exit code 14.
class StoreMismatch : public Error {
 public:
  using Error::Error;
};

/// What the capture pass recorded; replay dispatch keys on this.
enum class StoreKind : std::uint8_t {
  kByteCampaign = 0,  ///< single-byte CPA campaign (CpaCampaign::run)
  kFullKey = 1,       ///< fused all-bytes capture (run_fullkey)
  kTvla = 2,          ///< fixed-vs-random TVLA populations (run_tvla)
};

const char* store_kind_name(StoreKind k);

/// The campaign fingerprint stamped into every store header. Two
/// captures agree on every reading iff their identities agree (the
/// capturing thread count is recorded informationally only).
struct StoreIdentity {
  std::uint8_t kind = 0;          ///< StoreKind
  std::uint8_t circuit = 0;       ///< core::BenignCircuit value
  std::uint8_t mode = 0;          ///< core::SensorMode value
  std::uint8_t rng_contract = 0;  ///< 2; 1 = retired v1 capture
  std::uint64_t seed = 0;
  std::uint64_t trace_count = 0;
  std::uint64_t samples = 0;
  std::uint64_t target_key_byte = 0;
  std::uint64_t target_bit = 0;
  std::uint32_t config_hash = 0;  ///< CRC-32 of the canonical config blob

  /// Canonical serialization — the exact bytes the header stores.
  void save(ByteWriter& out) const;
  static StoreIdentity load(ByteReader& in);

  /// CRC-32 over the canonical serialization.
  std::uint32_t fingerprint() const;

  bool operator==(const StoreIdentity& other) const;
  bool operator!=(const StoreIdentity& other) const {
    return !(*this == other);
  }

  /// Throws StoreMismatch naming every differing field, or naming the
  /// retirement of contract v1 for a store captured under it.
  void require_compatible(const StoreIdentity& expected,
                          const std::string& context) const;
};

/// Accumulates one campaign's columns in memory and writes the framed
/// `SLMTRC1` file on finalize() (temp file + atomic rename, same
/// crash-safety discipline as checkpoints). Column slabs are sized up
/// front from `identity.trace_count`, so concurrent shards may record
/// disjoint trace indices without synchronization; only the recorded-
/// readings counter is atomic (it gates finalize on completeness).
class TraceStoreWriter {
 public:
  static constexpr std::size_t kDefaultChunkTraces = 4096;

  TraceStoreWriter(std::string path, const StoreIdentity& identity,
                   std::size_t chunk_traces = kDefaultChunkTraces);

  const std::string& path() const { return path_; }
  const StoreIdentity& identity() const { return identity_; }
  std::size_t chunk_traces() const { return chunk_traces_; }

  /// Informational header fields (do not participate in the fingerprint).
  void set_resolved_single_bit(std::uint64_t bit) {
    resolved_single_bit_ = bit;
  }
  void set_capture_threads(std::uint32_t threads) {
    capture_threads_ = threads;
  }

  /// Record one trace's plaintext and ciphertext.
  void record_meta(std::size_t trace, const crypto::Block& pt,
                   const crypto::Block& ct);

  /// Record one trace's sensor readings (samples() doubles).
  void record_readings(std::size_t trace, const double* y);

  /// Record `count` consecutive traces' readings from a trace-major
  /// block (the engines' staged yblk buffers append straight here).
  void record_readings_block(std::size_t first_trace, const double* y,
                             std::size_t count);

  /// Readings recorded so far (meta is assumed to ride along).
  std::size_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  struct FinalizeStats {
    std::size_t bytes_written = 0;
    std::size_t traces = 0;
    std::size_t chunks = 0;
  };

  /// Assemble header + columns + chunk index and write the framed file
  /// atomically. Requires every trace recorded; a campaign that halts
  /// early simply destroys the writer and leaves no file behind.
  FinalizeStats finalize();

 private:
  std::string path_;
  StoreIdentity identity_;
  std::size_t chunk_traces_;
  std::uint64_t resolved_single_bit_ = 0;
  std::uint32_t capture_threads_ = 1;
  std::vector<double> readings_;     // trace_count x samples, trace-major
  std::vector<std::uint8_t> pt_;     // trace_count x 16
  std::vector<std::uint8_t> ct_;     // trace_count x 16
  std::atomic<std::size_t> recorded_{0};
  bool finalized_ = false;
};

/// Zero-copy mmap reader. The constructor validates the whole file —
/// envelope magic/version/length/CRC, header shape, column extents and
/// every chunk CRC — so replay loops can trust raw pointers into the
/// mapping afterwards. readings(t) is 8-byte aligned and points into
/// the mapping; no reading is ever copied on the replay path.
class TraceStoreReader {
 public:
  explicit TraceStoreReader(const std::string& path);
  ~TraceStoreReader();

  TraceStoreReader(const TraceStoreReader&) = delete;
  TraceStoreReader& operator=(const TraceStoreReader&) = delete;

  const std::string& path() const { return path_; }
  const StoreIdentity& identity() const { return identity_; }
  StoreKind kind() const { return static_cast<StoreKind>(identity_.kind); }
  std::size_t trace_count() const { return identity_.trace_count; }
  std::size_t samples() const { return identity_.samples; }
  std::size_t chunk_traces() const { return chunk_traces_; }
  std::size_t chunk_count() const { return chunk_count_; }
  std::uint64_t resolved_single_bit() const { return resolved_single_bit_; }
  std::uint32_t capture_threads() const { return capture_threads_; }
  std::size_t file_bytes() const { return map_bytes_; }

  /// Trace `t`'s samples() readings, straight out of the mapping.
  const double* readings(std::size_t trace) const {
    return readings_ + trace * identity_.samples;
  }

  const std::uint8_t* plaintext_ptr(std::size_t trace) const {
    return pt_ + trace * 16;
  }
  const std::uint8_t* ciphertext_ptr(std::size_t trace) const {
    return ct_ + trace * 16;
  }

  crypto::Block plaintext(std::size_t trace) const;
  crypto::Block ciphertext(std::size_t trace) const;

 private:
  void open_and_validate();

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  StoreIdentity identity_;
  std::size_t chunk_traces_ = 0;
  std::size_t chunk_count_ = 0;
  std::uint64_t resolved_single_bit_ = 0;
  std::uint32_t capture_threads_ = 1;
  const double* readings_ = nullptr;
  const std::uint8_t* pt_ = nullptr;
  const std::uint8_t* ct_ = nullptr;
};

}  // namespace slm::store
