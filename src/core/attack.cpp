#include "core/attack.hpp"

#include "common/error.hpp"

namespace slm::core {

namespace {

// The run options every entry point passes through to its campaign.
void apply_run_options(const RunOptions& opts, CampaignConfig& cfg) {
  cfg.observer = opts.observer;
  cfg.checkpoint_dir = opts.checkpoint_dir;
  cfg.resume = opts.resume;
  cfg.halt_after_traces = opts.halt_after_traces;
  cfg.block = opts.block;
  cfg.simd = opts.simd;
  cfg.pool = opts.pool;
  cfg.setup_memo = opts.setup_memo;
  cfg.store_out = opts.store_out;
}

KeyByteReport report_from(std::size_t key_byte, const CampaignResult& r) {
  KeyByteReport report;
  report.key_byte = key_byte;
  report.true_value = r.correct_guess;
  report.recovered = r.recovered_guess;
  report.success = r.key_recovered;
  report.traces = r.traces_run;
  report.mtd = r.mtd;
  report.threads_used = r.threads_used;
  report.capture_seconds = r.capture_seconds;
  report.block_size = r.block_size;
  report.kernel_seconds = r.kernel_seconds;
  report.cpa_seconds = r.cpa_seconds;
  report.checkpoint_io_seconds = r.checkpoint_io_seconds;
  report.selection_seconds = r.selection_seconds;
  report.resumed_from = r.resumed_from;
  report.snapshot_path = r.snapshot_path;
  return report;
}

}  // namespace

StealthyAttack::StealthyAttack(BenignCircuit circuit, Calibration cal,
                               std::uint64_t seed)
    : cal_(std::move(cal)), setup_(circuit, cal_, seed), seed_(seed) {}

CampaignConfig StealthyAttack::byte_campaign_config(std::size_t key_byte,
                                                    std::size_t traces,
                                                    SensorMode mode) const {
  CampaignConfig cfg;
  cfg.traces = traces;
  cfg.mode = mode;
  cfg.target_key_byte = key_byte;
  cfg.target_bit = 0;
  cfg.seed = seed_ ^ (0x9e3779b97f4a7c15ull * (key_byte + 1));
  // Single-bit modes pick the strongest bit the way the paper does
  // (variance / operating point).
  if (mode == SensorMode::kBenignSingleBit ||
      mode == SensorMode::kTdcSingleBit) {
    cfg.single_bit = CampaignConfig::kAutoBit;
  }
  // The multiplier's Hamming weight needs the top-variance restriction
  // (glitchy endpoints carry variance but no slope; see DESIGN.md).
  if (mode == SensorMode::kBenignHw &&
      setup_.circuit_kind() == BenignCircuit::kC6288x2) {
    cfg.selection_top_k = 12;
  }

  // Sampling window around the leakage cycle of this byte's column.
  sca::LastRoundBitModel model(key_byte, 0);
  const double cyc = 1000.0 / cal_.aes_clock_mhz;
  const double leak_t =
      static_cast<double>(crypto::AesDatapathModel::leakage_cycle_for_byte(
          model.register_position())) *
      cyc;
  cfg.window_start_ns = leak_t - 2.0 * cyc;
  cfg.window_end_ns = leak_t + 3.5 * cyc;
  return cfg;
}

KeyByteReport StealthyAttack::recover_key_byte(std::size_t key_byte,
                                               std::size_t traces,
                                               SensorMode mode,
                                               unsigned threads) {
  return recover_key_byte(key_byte, traces, mode, threads, RunOptions{});
}

KeyByteReport StealthyAttack::recover_key_byte(std::size_t key_byte,
                                               std::size_t traces,
                                               SensorMode mode,
                                               unsigned threads,
                                               const RunOptions& opts) {
  CampaignConfig cfg = byte_campaign_config(key_byte, traces, mode);
  apply_run_options(opts, cfg);
  return report_from(key_byte, CpaCampaign(setup_, cfg).run(threads));
}

CampaignConfig StealthyAttack::fullkey_campaign_config(std::size_t traces,
                                                       SensorMode mode) const {
  CampaignConfig cfg;
  cfg.traces = traces;
  cfg.mode = mode;
  cfg.target_key_byte = 0;  // the fused engine attacks all 16
  cfg.target_bit = 0;
  // One seed plan for the whole key: the one shared capture stream.
  cfg.seed = seed_ ^ (0x9e3779b97f4a7c15ull * 17);
  if (mode == SensorMode::kBenignSingleBit ||
      mode == SensorMode::kTdcSingleBit) {
    cfg.single_bit = CampaignConfig::kAutoBit;
  }
  if (mode == SensorMode::kBenignHw &&
      setup_.circuit_kind() == BenignCircuit::kC6288x2) {
    cfg.selection_top_k = 12;
  }

  // The shared window must bracket every byte's leakage cycle — the
  // last-round columns retire on different cycles, so this is wider
  // than any single byte_campaign_config window.
  const double cyc = 1000.0 / cal_.aes_clock_mhz;
  double leak_lo = 0.0;
  double leak_hi = 0.0;
  for (std::size_t b = 0; b < 16; ++b) {
    sca::LastRoundBitModel model(b, 0);
    const double leak_t =
        static_cast<double>(crypto::AesDatapathModel::leakage_cycle_for_byte(
            model.register_position())) *
        cyc;
    if (b == 0 || leak_t < leak_lo) leak_lo = leak_t;
    if (b == 0 || leak_t > leak_hi) leak_hi = leak_t;
  }
  cfg.window_start_ns = leak_lo - 2.0 * cyc;
  cfg.window_end_ns = leak_hi + 3.5 * cyc;
  return cfg;
}

StealthyAttack::FullKeyReport StealthyAttack::recover_full_key(
    std::size_t traces, SensorMode mode, unsigned threads) {
  return recover_full_key(traces, mode, threads, FullKeyOptions{});
}

StealthyAttack::FullKeyReport StealthyAttack::recover_full_key(
    std::size_t traces, SensorMode mode, unsigned threads,
    const FullKeyOptions& opts) {
  CampaignConfig cfg = fullkey_campaign_config(traces, mode);
  apply_run_options(opts.run, cfg);
  const FullKeyRunResult r =
      CpaCampaign(setup_, cfg).run_fullkey(opts.fused, threads);
  FullKeyReport report;
  report.success = true;
  report.bytes.reserve(16);
  for (std::size_t b = 0; b < 16; ++b) {
    const FullKeyByteResult& br = r.bytes[b];
    KeyByteReport kb;
    kb.key_byte = b;
    kb.true_value = br.correct;
    kb.recovered = br.recovered;
    kb.success = br.success;
    kb.traces = br.traces;
    kb.early_exited = br.early_exited;
    kb.mtd = br.mtd;
    kb.threads_used = r.threads_used;
    kb.capture_seconds = r.capture_seconds;  // shared capture pass
    kb.block_size = r.block_size;
    kb.resumed_from = r.resumed_from;
    kb.snapshot_path = r.snapshot_path;
    report.last_round_key[b] = kb.recovered;
    report.success = report.success && kb.success;
    if (kb.early_exited) ++report.bytes_early_exited;
    report.bytes.push_back(std::move(kb));
  }
  report.traces_captured = r.traces_run;
  report.capture_seconds = r.capture_seconds;
  report.threads_used = r.threads_used;
  report.block_size = r.block_size;
  report.resumed_from = r.resumed_from;
  report.snapshot_path = r.snapshot_path;
  report.master_key = crypto::recover_master_key(report.last_round_key);
  return report;
}

bitstream::CheckReport StealthyAttack::check_stealthiness(
    const bitstream::CheckerOptions& opt) const {
  bitstream::BitstreamChecker checker(opt);
  bitstream::CheckReport combined;
  for (std::size_t i = 0; i < setup_.benign_instance_count(); ++i) {
    auto report = checker.check(setup_.benign_netlist(i));
    for (auto& f : report.findings) {
      combined.findings.push_back(std::move(f));
    }
  }
  return combined;
}

}  // namespace slm::core
