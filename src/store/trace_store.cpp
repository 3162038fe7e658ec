#include "store/trace_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

namespace slm::store {

namespace {

// Fixed header size inside the framed payload: identity (48 bytes) +
// layout (28 bytes) + 4 pad bytes. A multiple of 8, and the framed
// envelope is 24 bytes, so the readings column lands 8-byte aligned in
// the file — the alignment the zero-copy mmap reader relies on.
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kIndexEntryBytes = 8 + 8 + 4;
constexpr std::size_t kBlockBytes = 16;

std::size_t chunk_count_for(std::size_t traces, std::size_t chunk_traces) {
  return traces == 0 ? 0 : (traces + chunk_traces - 1) / chunk_traces;
}

}  // namespace

const char* store_kind_name(StoreKind k) {
  switch (k) {
    case StoreKind::kByteCampaign: return "byte-campaign";
    case StoreKind::kFullKey: return "full-key";
    case StoreKind::kTvla: return "tvla";
  }
  return "unknown";
}

void StoreIdentity::save(ByteWriter& out) const {
  out.put_u8(kind);
  out.put_u8(circuit);
  out.put_u8(mode);
  out.put_u8(rng_contract);
  out.put_u64(seed);
  out.put_u64(trace_count);
  out.put_u64(samples);
  out.put_u64(target_key_byte);
  out.put_u64(target_bit);
  out.put_u32(config_hash);
}

StoreIdentity StoreIdentity::load(ByteReader& in) {
  StoreIdentity id;
  id.kind = in.get_u8();
  id.circuit = in.get_u8();
  id.mode = in.get_u8();
  id.rng_contract = in.get_u8();
  id.seed = in.get_u64();
  id.trace_count = in.get_u64();
  id.samples = in.get_u64();
  id.target_key_byte = in.get_u64();
  id.target_bit = in.get_u64();
  id.config_hash = in.get_u32();
  return id;
}

std::uint32_t StoreIdentity::fingerprint() const {
  ByteWriter w;
  save(w);
  return crc32(w.bytes().data(), w.size());
}

bool StoreIdentity::operator==(const StoreIdentity& other) const {
  return kind == other.kind && circuit == other.circuit &&
         mode == other.mode && rng_contract == other.rng_contract &&
         seed == other.seed && trace_count == other.trace_count &&
         samples == other.samples &&
         target_key_byte == other.target_key_byte &&
         target_bit == other.target_bit &&
         config_hash == other.config_hash;
}

void StoreIdentity::require_compatible(const StoreIdentity& expected,
                                       const std::string& context) const {
  if (*this == expected) return;
  if (rng_contract == 1 && expected.rng_contract != 1) {
    throw StoreMismatch(context + ": store was captured under RNG contract "
                                  "v1 (sequential streams), which is "
                                  "retired — recapture it");
  }
  std::string diff;
  auto field = [&diff](const char* name, std::uint64_t got,
                       std::uint64_t want) {
    if (got == want) return;
    if (!diff.empty()) diff += ", ";
    diff += std::string(name) + " " + std::to_string(got) + " != " +
            std::to_string(want);
  };
  field("kind", kind, expected.kind);
  field("circuit", circuit, expected.circuit);
  field("mode", mode, expected.mode);
  field("rng_contract", rng_contract, expected.rng_contract);
  field("seed", seed, expected.seed);
  field("trace_count", trace_count, expected.trace_count);
  field("samples", samples, expected.samples);
  field("target_key_byte", target_key_byte, expected.target_key_byte);
  field("target_bit", target_bit, expected.target_bit);
  field("config_hash", config_hash, expected.config_hash);
  throw StoreMismatch(context + ": store fingerprint mismatch (" + diff +
                      ") — this store was captured under a different "
                      "campaign configuration");
}

TraceStoreWriter::TraceStoreWriter(std::string path,
                                   const StoreIdentity& identity,
                                   std::size_t chunk_traces)
    : path_(std::move(path)),
      identity_(identity),
      chunk_traces_(chunk_traces) {
  SLM_REQUIRE(!path_.empty(), "trace store: empty output path");
  SLM_REQUIRE(chunk_traces_ > 0, "trace store: chunk_traces must be > 0");
  SLM_REQUIRE(identity_.trace_count > 0 && identity_.samples > 0,
              "trace store: identity needs trace_count and samples");
  readings_.resize(identity_.trace_count * identity_.samples);
  pt_.resize(identity_.trace_count * kBlockBytes);
  ct_.resize(identity_.trace_count * kBlockBytes);
}

void TraceStoreWriter::record_meta(std::size_t trace, const crypto::Block& pt,
                                   const crypto::Block& ct) {
  std::memcpy(pt_.data() + trace * kBlockBytes, pt.data(), kBlockBytes);
  std::memcpy(ct_.data() + trace * kBlockBytes, ct.data(), kBlockBytes);
}

void TraceStoreWriter::record_readings(std::size_t trace, const double* y) {
  std::memcpy(readings_.data() + trace * identity_.samples, y,
              identity_.samples * sizeof(double));
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void TraceStoreWriter::record_readings_block(std::size_t first_trace,
                                             const double* y,
                                             std::size_t count) {
  std::memcpy(readings_.data() + first_trace * identity_.samples, y,
              count * identity_.samples * sizeof(double));
  recorded_.fetch_add(count, std::memory_order_relaxed);
}

TraceStoreWriter::FinalizeStats TraceStoreWriter::finalize() {
  SLM_REQUIRE(!finalized_, "trace store: finalize() called twice");
  SLM_REQUIRE(recorded() == identity_.trace_count,
              "trace store: campaign recorded " + std::to_string(recorded()) +
                  " of " + std::to_string(identity_.trace_count) +
                  " traces — refusing to write an incomplete store");
  finalized_ = true;

  const std::size_t n = identity_.trace_count;
  const std::size_t samples = identity_.samples;
  const std::size_t chunks = chunk_count_for(n, chunk_traces_);
  const auto* readings_bytes =
      reinterpret_cast<const std::uint8_t*>(readings_.data());

  ByteWriter header;
  identity_.save(header);
  header.put_u64(chunk_traces_);
  header.put_u64(chunks);
  header.put_u64(resolved_single_bit_);
  header.put_u32(capture_threads_);
  header.put_u32(0);  // pad to kHeaderBytes (8-aligns the readings column)
  SLM_ASSERT(header.size() == kHeaderBytes, "trace store header size drift");

  ByteWriter index;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t first = c * chunk_traces_;
    const std::size_t rows = std::min(chunk_traces_, n - first);
    std::uint32_t crc = crc32_update(
        0, readings_bytes + first * samples * sizeof(double),
        rows * samples * sizeof(double));
    crc = crc32_update(crc, pt_.data() + first * kBlockBytes,
                       rows * kBlockBytes);
    crc = crc32_update(crc, ct_.data() + first * kBlockBytes,
                       rows * kBlockBytes);
    index.put_u64(first);
    index.put_u64(rows);
    index.put_u32(crc);
  }

  FinalizeStats stats;
  stats.bytes_written = write_framed_file(
      path_, kStoreMagic, kStoreVersion,
      {header.bytes(),
       {readings_bytes, readings_.size() * sizeof(double)},
       pt_,
       ct_,
       index.bytes()},
      "trace store");
  stats.traces = n;
  stats.chunks = chunks;
  return stats;
}

TraceStoreReader::TraceStoreReader(const std::string& path) : path_(path) {
  try {
    open_and_validate();
  } catch (const StoreFormatError&) {
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    map_ = nullptr;
    throw;
  } catch (const Error& e) {
    // ByteReader overruns and other library errors all mean the same
    // thing here: the file is not a usable store.
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    map_ = nullptr;
    throw StoreFormatError(std::string("trace store: malformed '") + path_ +
                           "': " + e.what());
  }
}

TraceStoreReader::~TraceStoreReader() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

crypto::Block TraceStoreReader::plaintext(std::size_t trace) const {
  crypto::Block b;
  std::memcpy(b.data(), plaintext_ptr(trace), kBlockBytes);
  return b;
}

crypto::Block TraceStoreReader::ciphertext(std::size_t trace) const {
  crypto::Block b;
  std::memcpy(b.data(), ciphertext_ptr(trace), kBlockBytes);
  return b;
}

void TraceStoreReader::open_and_validate() {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) {
    throw StoreFormatError("trace store: cannot open '" + path_ + "'");
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw StoreFormatError("trace store: cannot stat '" + path_ + "'");
  }
  map_bytes_ = static_cast<std::size_t>(st.st_size);
  if (map_bytes_ < kFramedEnvelopeBytes) {
    ::close(fd);
    throw StoreFormatError("trace store: truncated envelope in '" + path_ +
                           "'");
  }
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (m == MAP_FAILED) {
    map_ = nullptr;
    throw StoreFormatError("trace store: mmap failed for '" + path_ + "'");
  }
  map_ = m;

  const auto* base = static_cast<const std::uint8_t*>(map_);
  if (std::memcmp(base, kStoreMagic, 8) != 0) {
    // The retired process fabric wrote SLMSNAP1 accumulator snapshots in
    // the same envelope; name one rather than call it a corrupt store.
    if (std::memcmp(base, "SLMSNAP1", 8) == 0) {
      throw StoreFormatError("trace store: '" + path_ +
                             "' is an SLMSNAP1 snapshot of the retired "
                             "process fabric, not an SLMTRC1 store");
    }
    throw StoreFormatError("trace store: bad magic in '" + path_ + "'");
  }
  ByteReader env(base + 8, kFramedEnvelopeBytes - 8);
  const std::uint32_t version = env.get_u32();
  if (version != kStoreVersion) {
    throw StoreFormatError("trace store: unsupported version " +
                           std::to_string(version) + " in '" + path_ +
                           "' (expected " + std::to_string(kStoreVersion) +
                           ")");
  }
  const std::uint64_t length = env.get_u64();
  const std::uint32_t stored_crc = env.get_u32();
  if (length != map_bytes_ - kFramedEnvelopeBytes) {
    throw StoreFormatError("trace store: truncated payload in '" + path_ +
                           "'");
  }
  const std::uint8_t* payload = base + kFramedEnvelopeBytes;
  if (crc32(payload, length) != stored_crc) {
    throw StoreFormatError("trace store: CRC mismatch in '" + path_ +
                           "' — store is corrupt");
  }
  if (length < kHeaderBytes) {
    throw StoreFormatError("trace store: short header in '" + path_ + "'");
  }

  ByteReader header(payload, kHeaderBytes);
  identity_ = StoreIdentity::load(header);
  chunk_traces_ = header.get_u64();
  chunk_count_ = header.get_u64();
  resolved_single_bit_ = header.get_u64();
  capture_threads_ = header.get_u32();
  (void)header.get_u32();  // pad

  const std::size_t n = identity_.trace_count;
  const std::size_t samples = identity_.samples;
  if (n == 0 || samples == 0 || chunk_traces_ == 0 ||
      chunk_count_ != chunk_count_for(n, chunk_traces_)) {
    throw StoreFormatError("trace store: malformed header in '" + path_ +
                           "'");
  }

  const std::size_t readings_off = kHeaderBytes;
  const std::size_t pt_off = readings_off + n * samples * sizeof(double);
  const std::size_t ct_off = pt_off + n * kBlockBytes;
  const std::size_t index_off = ct_off + n * kBlockBytes;
  const std::size_t total = index_off + chunk_count_ * kIndexEntryBytes;
  if (total != length) {
    throw StoreFormatError(
        "trace store: column extents do not match payload size in '" + path_ +
        "'");
  }

  readings_ = reinterpret_cast<const double*>(payload + readings_off);
  pt_ = payload + pt_off;
  ct_ = payload + ct_off;
  if (reinterpret_cast<std::uintptr_t>(readings_) % alignof(double) != 0) {
    throw StoreFormatError("trace store: misaligned readings column in '" +
                           path_ + "'");
  }

  ByteReader index(payload + index_off, chunk_count_ * kIndexEntryBytes);
  const auto* readings_bytes = payload + readings_off;
  for (std::size_t c = 0; c < chunk_count_; ++c) {
    const std::uint64_t first = index.get_u64();
    const std::uint64_t rows = index.get_u64();
    const std::uint32_t chunk_crc = index.get_u32();
    if (first != c * chunk_traces_ ||
        rows != std::min<std::uint64_t>(chunk_traces_, n - first)) {
      throw StoreFormatError("trace store: malformed chunk index in '" +
                             path_ + "'");
    }
    std::uint32_t crc = crc32_update(
        0, readings_bytes + first * samples * sizeof(double),
        rows * samples * sizeof(double));
    crc = crc32_update(crc, pt_ + first * kBlockBytes, rows * kBlockBytes);
    crc = crc32_update(crc, ct_ + first * kBlockBytes, rows * kBlockBytes);
    if (crc != chunk_crc) {
      throw StoreFormatError("trace store: chunk " + std::to_string(c) +
                             " CRC mismatch in '" + path_ +
                             "' — store is corrupt");
    }
  }
}

}  // namespace slm::store
