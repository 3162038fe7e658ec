#include "sca/fold.hpp"

#include <algorithm>
#include <cstring>

namespace slm::sca {

std::vector<std::size_t> default_checkpoints(std::size_t traces) {
  static constexpr std::size_t kSchedule[] = {
      100,    200,    500,    1000,   2000,   5000,   10000,
      20000,  50000,  75000,  100000, 150000, 200000, 250000,
      300000, 350000, 400000, 450000, 500000, 750000, 1000000};
  std::vector<std::size_t> out;
  for (std::size_t c : kSchedule) {
    if (c < traces) out.push_back(c);
  }
  out.push_back(traces);
  return out;
}

std::vector<std::size_t> checkpoint_schedule(
    const std::vector<std::size_t>& requested, std::size_t traces) {
  std::vector<std::size_t> checkpoints;
  for (const std::size_t c :
       requested.empty() ? default_checkpoints(traces) : requested) {
    if (c > 0 && c <= traces) checkpoints.push_back(c);
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  if (checkpoints.empty() || checkpoints.back() != traces) {
    checkpoints.push_back(traces);
  }
  return checkpoints;
}

std::vector<LastRoundBitModel> key_byte_models(std::size_t bit) {
  std::vector<LastRoundBitModel> models;
  models.reserve(MultiByteCpa::kBytes);
  for (std::size_t j = 0; j < MultiByteCpa::kBytes; ++j) {
    models.emplace_back(j, bit);
  }
  return models;
}

void label_classes(const std::vector<LastRoundBitModel>& models,
                   const std::uint8_t* ct, std::size_t n, std::uint8_t* v,
                   std::uint8_t* b) {
  const std::size_t m = models.size();
  crypto::Block c;
  for (std::size_t t = 0; t < n; ++t) {
    std::memcpy(c.data(), ct + t * c.size(), c.size());
    for (std::size_t j = 0; j < m; ++j) {
      v[t * m + j] = models[j].class_value(c);
      b[t * m + j] = models[j].class_bit(c);
    }
  }
}

EarlyExitTracker::EarlyExitTracker(
    const FullKeyConfig& cfg, std::size_t target_bit,
    const crypto::Block& true_last_round_key,
    std::array<FullKeyByteResult, kBytes>& bytes)
    : cfg_(cfg), models_(key_byte_models(target_bit)), bytes_(bytes) {
  for (std::size_t j = 0; j < kBytes; ++j) {
    bytes_[j].correct = models_[j].correct_guess(true_last_round_key);
  }
}

std::size_t EarlyExitTracker::converged() const {
  return static_cast<std::size_t>(
      std::count_if(state_.begin(), state_.end(),
                    [](const ByteState& s) { return s.converged; }));
}

std::vector<EarlyExitTracker::Freeze> EarlyExitTracker::fold_at(
    const MultiByteCpa& acc, std::size_t traces) {
  std::vector<Freeze> frozen;
  for (std::size_t j = 0; j < kBytes; ++j) {
    if (state_[j].converged) continue;
    const std::optional<double> margin = observe(
        j,
        snapshot_progress(acc.fold(j, models_[j].pattern().data()),
                          bytes_[j].correct),
        traces);
    if (margin) frozen.push_back(Freeze{j, *margin});
  }
  return frozen;
}

std::optional<double> EarlyExitTracker::observe(std::size_t j,
                                                CpaProgressPoint p,
                                                std::size_t traces) {
  ByteState& s = state_[j];
  const double margin = winner_margin(p);
  const bool qualify = cfg_.early_exit &&
                       traces >= cfg_.early_exit_min_traces &&
                       s.prev_best == p.best_guess &&
                       margin >= cfg_.early_exit_margin;
  s.stable = qualify ? s.stable + 1 : 0;
  s.prev_best = p.best_guess;
  bytes_[j].progress.push_back(std::move(p));
  if (!qualify || s.stable < cfg_.early_exit_stable) return std::nullopt;
  const CpaProgressPoint& fp = bytes_[j].progress.back();
  freeze(j, static_cast<std::uint8_t>(fp.best_guess), traces,
         fp.max_abs_corr);
  return margin;
}

void EarlyExitTracker::freeze(std::size_t j, std::uint8_t recovered,
                              std::size_t traces, std::vector<double> corr) {
  FullKeyByteResult& br = bytes_[j];
  state_[j].converged = true;
  br.recovered = recovered;
  br.traces = traces;
  br.final_max_abs_corr = std::move(corr);
  br.early_exited = true;
  br.success = br.recovered == br.correct;
}

void EarlyExitTracker::finish() {
  for (std::size_t j = 0; j < kBytes; ++j) {
    FullKeyByteResult& br = bytes_[j];
    if (!state_[j].converged) {
      const CpaProgressPoint& fp = br.progress.back();
      br.recovered = static_cast<std::uint8_t>(fp.best_guess);
      br.traces = fp.traces;
      br.final_max_abs_corr = fp.max_abs_corr;
      br.success = br.recovered == br.correct;
    }
    br.mtd = estimate_mtd(br.progress);
  }
}

}  // namespace slm::sca
