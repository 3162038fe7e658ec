#include "core/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/binio.hpp"
#include "core/campaign.hpp"

namespace slm::core {

namespace {

constexpr char kMagic[] = "SLMCKPT1";

void put_block(ByteWriter& out, const crypto::Block& b) {
  out.put_bytes(b.data(), b.size());
}

crypto::Block get_block(ByteReader& in) {
  crypto::Block b{};
  in.get_bytes(b.data(), b.size());
  return b;
}

void put_progress_point(ByteWriter& out, const sca::CpaProgressPoint& p) {
  out.put_u64(p.traces);
  out.put_u64(p.best_guess);
  out.put_u64(p.correct_rank);
  out.put_f64(p.correct_corr);
  out.put_f64(p.best_wrong_corr);
  out.put_f64_vector(p.max_abs_corr);
}

sca::CpaProgressPoint get_progress_point(ByteReader& in) {
  sca::CpaProgressPoint p;
  p.traces = in.get_u64();
  p.best_guess = in.get_u64();
  p.correct_rank = in.get_u64();
  p.correct_corr = in.get_f64();
  p.best_wrong_corr = in.get_f64();
  p.max_abs_corr = in.get_f64_vector();
  return p;
}

ByteWriter serialize_payload(const CampaignCheckpoint& ck) {
  ByteWriter out;
  out.put_u64(ck.seed);
  out.put_u64(ck.total_traces);
  out.put_u32(ck.mode);
  out.put_u32(ck.shards);
  out.put_u64(ck.samples);
  out.put_u64(ck.target_key_byte);
  out.put_u64(ck.target_bit);
  out.put_u64(ck.single_bit);
  out.put_u8(ck.compiled ? 1 : 0);
  out.put_u64(ck.block);
  out.put_u32(ck.rng_contract);
  out.put_u8(ck.fullkey ? 1 : 0);
  out.put_u64(ck.traces_done);

  out.put_u64(ck.shard_state.size());
  for (const CheckpointShard& sh : ck.shard_state) {
    out.put_u64(sh.position);
    out.put_u64_array(sh.rng);
    put_block(out, sh.victim.register_state);
    put_block(out, sh.victim.register_mask);
    out.put_u64_array(sh.victim.mask_rng_state);
    out.put_u8(sh.has_fence ? 1 : 0);
    out.put_u64_array(sh.fence_rng);
    out.put_u64(sh.accumulator.size());
    out.put_bytes(sh.accumulator.data(), sh.accumulator.size());
  }

  out.put_u64(ck.progress.size());
  for (const auto& p : ck.progress) put_progress_point(out, p);

  if (ck.fullkey) {
    out.put_u64(ck.fullkey_bytes.size());
    for (const FullKeyByteCheckpoint& fb : ck.fullkey_bytes) {
      out.put_u8(fb.converged ? 1 : 0);
      out.put_u64(fb.stable);
      out.put_u64(fb.prev_best);
      out.put_u64(fb.frozen_traces);
      out.put_u8(fb.recovered);
      out.put_f64_vector(fb.frozen_corr);
      out.put_u64(fb.progress.size());
      for (const auto& p : fb.progress) put_progress_point(out, p);
    }
  }
  return out;
}

CampaignCheckpoint parse_payload(ByteReader& in) {
  CampaignCheckpoint ck;
  ck.seed = in.get_u64();
  ck.total_traces = in.get_u64();
  ck.mode = in.get_u32();
  ck.shards = in.get_u32();
  ck.samples = in.get_u64();
  ck.target_key_byte = in.get_u64();
  ck.target_bit = in.get_u64();
  ck.single_bit = in.get_u64();
  ck.compiled = in.get_u8() != 0;
  ck.block = in.get_u64();
  ck.rng_contract = in.get_u32();
  SLM_REQUIRE(ck.rng_contract == 1 || ck.rng_contract == 2,
              "checkpoint: unknown RNG contract " +
                  std::to_string(ck.rng_contract));
  ck.fullkey = in.get_u8() != 0;
  ck.traces_done = in.get_u64();

  const std::uint64_t shard_count = in.get_u64();
  SLM_REQUIRE(shard_count == ck.shards,
              "checkpoint: shard table does not match header");
  ck.shard_state.reserve(shard_count);
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    CheckpointShard sh;
    sh.position = in.get_u64();
    sh.rng = in.get_u64_array<4>();
    sh.victim.register_state = get_block(in);
    sh.victim.register_mask = get_block(in);
    sh.victim.mask_rng_state = in.get_u64_array<4>();
    sh.has_fence = in.get_u8() != 0;
    sh.fence_rng = in.get_u64_array<4>();
    const std::uint64_t acc_size = in.get_u64();
    SLM_REQUIRE(acc_size <= in.remaining(),
                "checkpoint: accumulator blob overruns payload");
    sh.accumulator.resize(acc_size);
    in.get_bytes(sh.accumulator.data(), acc_size);
    ck.shard_state.push_back(std::move(sh));
  }

  const std::uint64_t progress_count = in.get_u64();
  ck.progress.reserve(progress_count);
  for (std::uint64_t i = 0; i < progress_count; ++i) {
    ck.progress.push_back(get_progress_point(in));
  }

  if (ck.fullkey) {
    const std::uint64_t byte_count = in.get_u64();
    SLM_REQUIRE(byte_count == 16,
                "checkpoint: full-key section must carry 16 byte states");
    ck.fullkey_bytes.reserve(byte_count);
    for (std::uint64_t i = 0; i < byte_count; ++i) {
      FullKeyByteCheckpoint fb;
      fb.converged = in.get_u8() != 0;
      fb.stable = in.get_u64();
      fb.prev_best = in.get_u64();
      fb.frozen_traces = in.get_u64();
      fb.recovered = in.get_u8();
      fb.frozen_corr = in.get_f64_vector();
      const std::uint64_t pc = in.get_u64();
      fb.progress.reserve(pc);
      for (std::uint64_t j = 0; j < pc; ++j) {
        fb.progress.push_back(get_progress_point(in));
      }
      ck.fullkey_bytes.push_back(std::move(fb));
    }
  }
  SLM_REQUIRE(in.done(), "checkpoint: trailing bytes after payload");
  return ck;
}

}  // namespace

std::string checkpoint_file(const std::string& dir) {
  return (std::filesystem::path(dir) / "campaign.ckpt").string();
}

std::size_t save_checkpoint(const std::string& dir,
                            const CampaignCheckpoint& ck) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  SLM_REQUIRE(!ec, "checkpoint: cannot create directory '" + dir + "'");

  const ByteWriter payload = serialize_payload(ck);
  return write_framed_file(checkpoint_file(dir), kMagic, kCheckpointVersion,
                           {payload.bytes()}, "checkpoint");
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& dir) {
  const std::string path = checkpoint_file(dir);
  // Version 4 accumulators were captured with bits of interest (or an
  // auto-picked bit) from the retired sequential pre-passes; this build's
  // pre-passes may pick others, so the two cannot be continued as one.
  std::uint8_t head[12] = {};
  std::ifstream(path, std::ios::binary)
      .read(reinterpret_cast<char*>(head), sizeof head);
  if (std::equal(head, head + 8, kMagic) &&
      ByteReader(head + 8, 4).get_u32() == 4) {
    throw Error("checkpoint: '" + path +
                "' is version 4, written by the retired sequential sensor "
                "pre-pass (its bits of interest may differ from this "
                "build's) — start the campaign fresh");
  }
  const std::optional<std::vector<std::uint8_t>> payload =
      read_framed_file(path, kMagic, kCheckpointVersion, "checkpoint");
  if (!payload) return std::nullopt;
  ByteReader in(payload->data(), payload->size());
  return parse_payload(in);
}

void require_checkpoint_matches(const CampaignCheckpoint& ck,
                                const CampaignConfig& cfg,
                                std::uint32_t shards, std::size_t samples,
                                bool fullkey) {
  if (ck.rng_contract != 2) throw CheckpointContractMismatch(ck.rng_contract);
  SLM_REQUIRE(ck.compiled,
              "resume: snapshot holds reference-kernel (compiled = 0) "
              "accumulators; that capture path is retired — start fresh");
  SLM_REQUIRE(ck.fullkey == fullkey,
              ck.fullkey
                  ? "resume: snapshot is a full-key campaign — resume with "
                    "--full-key"
                  : "resume: snapshot is a single-byte campaign, not a "
                    "full-key one");
  SLM_REQUIRE(ck.seed == cfg.seed, "resume: snapshot was taken under a "
                                   "different seed");
  SLM_REQUIRE(ck.total_traces == cfg.traces,
              "resume: snapshot was taken under a different trace budget");
  SLM_REQUIRE(ck.mode == static_cast<std::uint32_t>(cfg.mode),
              "resume: snapshot was taken under a different sensor mode");
  SLM_REQUIRE(ck.shards == shards,
              "resume: snapshot has " + std::to_string(ck.shards) +
                  " shard(s) but this run uses " + std::to_string(shards) +
                  " — resume with the same --threads");
  SLM_REQUIRE(ck.samples == samples,
              "resume: snapshot was taken under a different sampling window");
  SLM_REQUIRE(ck.target_key_byte == cfg.target_key_byte &&
                  ck.target_bit == cfg.target_bit,
              "resume: snapshot was taken for a different CPA target");
  SLM_REQUIRE(ck.single_bit == cfg.single_bit,
              "resume: snapshot was taken for a different sensor bit");
  // ck.block is deliberately NOT checked: the trace-block size only tiles
  // the capture loop, so resuming under a different --block / SLM_BLOCK
  // still reproduces the uninterrupted run bit-for-bit (resume_test and
  // resume_smoke exercise exactly this).
  SLM_REQUIRE(ck.traces_done < ck.total_traces,
              "resume: snapshot is already complete (" +
                  std::to_string(ck.traces_done) + "/" +
                  std::to_string(ck.total_traces) + " traces)");
  SLM_REQUIRE(ck.shard_state.size() == ck.shards,
              "resume: snapshot shard table is inconsistent");
}

}  // namespace slm::core
