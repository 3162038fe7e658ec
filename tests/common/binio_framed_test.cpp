// Corruption battery for the shared framed-file envelope
// (common/binio): every way a framed file can be structurally bad —
// missing, short header, wrong magic, wrong version, truncated payload,
// flipped CRC or payload byte — must surface as a typed, context-
// prefixed error, never a misparse. The trace store, checkpoints and
// snapshots all stand on this envelope. The CRC-32 kernels behind it
// are checked against the bytewise reference loop.
#include "common/binio.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "crc32_bytewise.hpp"
#include "gtest/gtest.h"

namespace slm {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("slm_binio_") + name + "_" +
           std::to_string(::getpid())))
      .string();
}

std::vector<std::uint8_t> sample_payload() {
  std::vector<std::uint8_t> p;
  for (int i = 0; i < 100; ++i) p.push_back(static_cast<std::uint8_t>(i));
  return p;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(is)),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// Expects an slm::Error whose message contains `needle` — the battery
// pins the *specific* diagnosis, not just "something threw".
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected slm::Error containing '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path(temp_path(name)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

TEST(BinioFramedTest, RoundTripReturnsPayloadAndByteCount) {
  TempFile f("roundtrip");
  const auto payload = sample_payload();
  const std::size_t written =
      write_framed_file(f.path, "SLMTEST1", 3, {payload}, "test");
  EXPECT_EQ(written, 24 + payload.size());  // 8 magic + 4 + 8 + 4 header

  const auto back = read_framed_file(f.path, "SLMTEST1", 3, "test");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(BinioFramedTest, MissingFileIsNullopt) {
  const auto r =
      read_framed_file(temp_path("nonexistent"), "SLMTEST1", 1, "test");
  EXPECT_FALSE(r.has_value());
}

TEST(BinioFramedTest, WrongMagicRejected) {
  TempFile f("magic");
  write_framed_file(f.path, "SLMTEST1", 1, {sample_payload()}, "test");
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMOTHER", 1, "test"); },
      "bad magic in");
}

TEST(BinioFramedTest, WrongVersionRejected) {
  TempFile f("version");
  write_framed_file(f.path, "SLMTEST1", 7, {sample_payload()}, "test");
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 8, "test"); },
      "unsupported version 7");
}

TEST(BinioFramedTest, TruncatedPayloadRejected) {
  TempFile f("truncated");
  write_framed_file(f.path, "SLMTEST1", 1, {sample_payload()}, "test");
  auto bytes = slurp(f.path);
  bytes.resize(bytes.size() - 10);  // header intact, payload short
  spit(f.path, bytes);
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 1, "test"); },
      "truncated payload in");
}

TEST(BinioFramedTest, ExtraTrailingBytesRejected) {
  // length != remaining also catches a file that GREW — trailing
  // garbage is as suspect as truncation.
  TempFile f("trailing");
  write_framed_file(f.path, "SLMTEST1", 1, {sample_payload()}, "test");
  auto bytes = slurp(f.path);
  bytes.push_back(0xab);
  spit(f.path, bytes);
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 1, "test"); },
      "truncated payload in");
}

TEST(BinioFramedTest, FlippedCrcByteRejected) {
  TempFile f("crcflip");
  write_framed_file(f.path, "SLMTEST1", 1, {sample_payload()}, "test");
  auto bytes = slurp(f.path);
  bytes[20] ^= 0x01;  // stored CRC lives at envelope offset 20..23
  spit(f.path, bytes);
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 1, "test"); },
      "CRC mismatch in");
}

TEST(BinioFramedTest, FlippedPayloadByteRejected) {
  TempFile f("payloadflip");
  write_framed_file(f.path, "SLMTEST1", 1, {sample_payload()}, "test");
  auto bytes = slurp(f.path);
  bytes[24 + 50] ^= 0x80;
  spit(f.path, bytes);
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 1, "test"); },
      "CRC mismatch in");
}

TEST(BinioFramedTest, ShortHeaderRejected) {
  // A file shorter than the 24-byte envelope dies in the bounds-checked
  // ByteReader, not in a wild read.
  TempFile f("shorthdr");
  spit(f.path, std::vector<std::uint8_t>{'S', 'L', 'M', 'T', 'E'});
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 1, "test"); },
      "truncated input");
}

TEST(BinioFramedTest, EmptyFileRejected) {
  TempFile f("empty");
  spit(f.path, {});
  expect_error_containing(
      [&] { (void)read_framed_file(f.path, "SLMTEST1", 1, "test"); },
      "truncated input");
}

TEST(BinioFramedTest, EmptyPayloadRoundTrips) {
  TempFile f("emptypayload");
  write_framed_file(f.path, "SLMTEST1", 1, {}, "test");
  const auto back = read_framed_file(f.path, "SLMTEST1", 1, "test");
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(BinioFramedTest, ErrorMessagesCarryContext) {
  TempFile f("context");
  write_framed_file(f.path, "SLMTEST1", 1, {sample_payload()}, "test");
  expect_error_containing(
      [&] {
        (void)read_framed_file(f.path, "SLMOTHER", 1, "trace store");
      },
      "trace store:");
}

TEST(BinioFramedTest, GatherWriteMatchesOneSpan) {
  // The trace store writes its header, columns and chunk index as
  // separate spans; the file must be byte-identical to writing their
  // concatenation, and an empty span must contribute nothing.
  TempFile one("gather_one");
  TempFile many("gather_many");
  const auto payload = sample_payload();
  const std::span<const std::uint8_t> all(payload);
  write_framed_file(one.path, "SLMTEST1", 2, {all}, "test");
  const std::size_t written = write_framed_file(
      many.path, "SLMTEST1", 2,
      {all.first(13), all.subspan(13, 0), all.subspan(13, 50),
       all.subspan(63)},
      "test");
  EXPECT_EQ(written, kFramedEnvelopeBytes + payload.size());
  EXPECT_EQ(slurp(many.path), slurp(one.path));
  const auto back = read_framed_file(many.path, "SLMTEST1", 2, "test");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

// ---------------------------------------------------------------------
// CRC-32 kernels against the bytewise reference.

using Crc32Kernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                      std::size_t);

using slm::reference::crc32_bytewise;

struct KernelCase {
  const char* name;
  Crc32Kernel kernel;
  bool (*supported)();
};

bool always() { return true; }

std::vector<std::uint8_t> noise_bytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

class Crc32KernelTest : public ::testing::TestWithParam<KernelCase> {
 protected:
  void SetUp() override {
    if (!GetParam().supported()) {
      GTEST_SKIP() << GetParam().name << " not supported by this CPU";
    }
  }
  std::uint32_t run(std::uint32_t crc, const std::uint8_t* data,
                    std::size_t size) const {
    return GetParam().kernel(crc, data, size);
  }
};

TEST_P(Crc32KernelTest, CheckValue) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  const auto* s = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(crc32_bytewise(0, s, 9), 0xcbf43926u);
  EXPECT_EQ(run(0, s, 9), 0xcbf43926u);
}

TEST_P(Crc32KernelTest, MatchesBytewiseAcrossLengthsAndOffsets) {
  // Every length through the short-tail, single-block and multi-block
  // paths, each from every alignment within 16 bytes, with zero and
  // non-zero incoming CRCs.
  const auto buf = noise_bytes(4097 + 16, 1);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  for (const std::size_t n : {4095u, 4096u, 4097u}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 16; ++off) {
      const auto mix = static_cast<std::uint32_t>(n + off);
      const std::uint32_t seed = mix % 2 == 0 ? 0u : 0x9e3779b9u * mix;
      ASSERT_EQ(run(seed, buf.data() + off, n),
                crc32_bytewise(seed, buf.data() + off, n))
          << "length " << n << " offset " << off << " crc " << seed;
    }
  }
}

TEST_P(Crc32KernelTest, MatchesBytewiseOnOneMebibyte) {
  const auto buf = noise_bytes((1u << 20) + 7, 2);
  for (const std::size_t off : {0u, 7u}) {
    EXPECT_EQ(run(0xdeadbeefu, buf.data() + off, 1u << 20),
              crc32_bytewise(0xdeadbeefu, buf.data() + off, 1u << 20))
        << "offset " << off;
  }
}

TEST_P(Crc32KernelTest, ChainedSplitsMatchOneShot) {
  // The trace store chains each chunk's column slices through
  // crc32_update; any split must equal the one-shot CRC.
  const auto buf = noise_bytes(10000, 3);
  const std::uint32_t one_shot = crc32_bytewise(0, buf.data(), buf.size());
  std::mt19937 rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint32_t chained = 0;
    std::size_t pos = 0;
    while (pos < buf.size()) {
      const std::size_t piece =
          std::min<std::size_t>(rng() % 300, buf.size() - pos);
      chained = run(chained, buf.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(chained, one_shot) << "trial " << trial;
  }
  // Empty spans are identity.
  EXPECT_EQ(run(one_shot, buf.data(), 0), one_shot);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32KernelTest,
    ::testing::Values(
        KernelCase{"slice16", detail::crc32_slice16, always},
        KernelCase{"pclmul", detail::crc32_pclmul,
                   detail::crc32_pclmul_supported},
        KernelCase{"dispatched", crc32_update, always}),
    [](const ::testing::TestParamInfo<KernelCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace slm
