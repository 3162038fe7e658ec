#include "store/replay.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sca/model.hpp"
#include "sca/tvla.hpp"

namespace slm::store {

namespace {

// Walk [from, to) in store-chunk-aligned blocks. Any regrouping of the
// add_block calls lands on bit-identical accumulator sums (partition
// invariance, sca/cpa.hpp), so chunk-sized blocks are purely a cache
// choice — the chunk-boundary-invariance test pins that the results do
// not depend on it.
template <typename AddBlock>
void feed_blocks(const TraceStoreReader& store, std::size_t from,
                 std::size_t to, AddBlock&& add) {
  const std::size_t chunk = store.chunk_traces();
  std::size_t t = from;
  while (t < to) {
    const std::size_t end = std::min(to, (t / chunk + 1) * chunk);
    add(t, end - t);
    t = end;
  }
}

void require_kind(const TraceStoreReader& store, StoreKind want) {
  if (store.kind() == want) return;
  throw StoreMismatch("store replay: '" + store.path() + "' holds a " +
                      std::string(store_kind_name(store.kind())) +
                      " capture, not a " + store_kind_name(want) + " one");
}

void note_replay(obs::CampaignObserver* ob, const char* kind,
                 std::size_t traces, double seconds) {
  if (ob == nullptr) return;
  ob->metrics().add("slm.store.traces_replayed",
                    static_cast<double>(traces));
  ob->metrics().observe("slm.store.replay_seconds", seconds);
  ob->event("store_replay",
            obs::JsonWriter()
                .field("kind", kind)
                .field("traces", static_cast<std::uint64_t>(traces))
                .field("seconds", seconds));
}

// Per-byte fold + early-exit machine shared by replay_fullkey and the
// fused replay_all: folds one MultiByteCpa at checkpoint trace counts
// with the live fused engine's per-byte decisions (same margin,
// stability and minimum-trace gates), then finalizes the unconverged
// bytes at the full trace count.
class FullKeyFolder {
 public:
  FullKeyFolder(const std::vector<sca::LastRoundBitModel>* models,
                const ReplayFullKeyOptions* opts, ReplayFullKeyResult* out)
      : models_(models), opts_(opts), out_(out) {}

  void fold_at(const sca::MultiByteCpa& acc, std::size_t traces_done) {
    for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
      if (state_[j].converged) continue;
      const sca::CpaEngine folded =
          acc.fold(j, (*models_)[j].pattern().data());
      sca::CpaProgressPoint p =
          sca::snapshot_progress(folded, out_->bytes[j].correct);
      const double margin = sca::winner_margin(p);
      const bool qualify = opts_->early_exit &&
                           traces_done >= opts_->early_exit_min_traces &&
                           state_[j].prev_best == p.best_guess &&
                           margin >= opts_->early_exit_margin;
      if (qualify) {
        ++state_[j].stable;
      } else {
        state_[j].stable = 0;
      }
      state_[j].prev_best = p.best_guess;
      out_->bytes[j].progress.push_back(std::move(p));
      if (qualify && state_[j].stable >= opts_->early_exit_stable) {
        const sca::CpaProgressPoint& fp = out_->bytes[j].progress.back();
        ReplayFullKeyByte& br = out_->bytes[j];
        state_[j].converged = true;
        br.recovered = static_cast<std::uint8_t>(fp.best_guess);
        br.traces = traces_done;
        br.final_max_abs_corr = fp.max_abs_corr;
        br.early_exited = true;
        br.success = br.recovered == br.correct;
      }
    }
  }

  /// Final folds at the full trace count `n`, then key assembly.
  void finish(const sca::MultiByteCpa& acc, std::size_t n) {
    for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
      ReplayFullKeyByte& br = out_->bytes[j];
      if (!state_[j].converged) {
        const sca::CpaEngine folded =
            acc.fold(j, (*models_)[j].pattern().data());
        if (br.progress.empty() || br.progress.back().traces != n) {
          br.progress.push_back(sca::snapshot_progress(folded, br.correct));
        }
        const sca::CpaProgressPoint& fp = br.progress.back();
        br.recovered = static_cast<std::uint8_t>(fp.best_guess);
        br.traces = n;
        br.final_max_abs_corr = fp.max_abs_corr;
        br.success = br.recovered == br.correct;
      }
      br.mtd = sca::estimate_mtd(br.progress);
      out_->recovered_last_round_key[j] = br.recovered;
      if (br.early_exited) ++out_->bytes_early_exited;
    }
    out_->success = std::all_of(out_->bytes.begin(), out_->bytes.end(),
                                [](const ReplayFullKeyByte& br) {
                                  return br.success;
                                });
    out_->traces = n;
  }

 private:
  struct ByteState {
    bool converged = false;
    std::size_t stable = 0;
    std::size_t prev_best = 256;  // 256 = no previous checkpoint yet
  };
  const std::vector<sca::LastRoundBitModel>* models_;
  const ReplayFullKeyOptions* opts_;
  ReplayFullKeyResult* out_;
  std::array<ByteState, sca::MultiByteCpa::kBytes> state_{};
};

std::vector<sca::LastRoundBitModel> byte_models(std::uint64_t target_bit) {
  std::vector<sca::LastRoundBitModel> models;
  models.reserve(sca::MultiByteCpa::kBytes);
  for (std::size_t j = 0; j < sca::MultiByteCpa::kBytes; ++j) {
    models.emplace_back(j, target_bit);
  }
  return models;
}

}  // namespace

ReplayAttackResult replay_attack(const TraceStoreReader& store,
                                 const std::vector<std::size_t>& checkpoints,
                                 std::uint8_t correct_guess,
                                 obs::CampaignObserver* observer) {
  require_kind(store, StoreKind::kByteCampaign);
  const double t0 = obs::monotonic_seconds();
  const StoreIdentity& id = store.identity();
  const std::size_t n = store.trace_count();

  sca::LastRoundBitModel model(id.target_key_byte, id.target_bit);
  sca::XorClassCpa cls(store.samples());
  std::vector<std::uint8_t> v(store.chunk_traces());
  std::vector<std::uint8_t> b(store.chunk_traces());
  const auto add = [&](std::size_t first, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const crypto::Block ct = store.ciphertext(first + i);
      v[i] = model.class_value(ct);
      b[i] = model.class_bit(ct);
    }
    cls.add_block(v.data(), b.data(), store.readings(first), count);
  };

  ReplayAttackResult result;
  result.correct_guess = correct_guess;
  std::size_t done = 0;
  for (const std::size_t cp : checkpoints) {
    // The live loop only folds at checkpoints it actually reaches, in
    // ascending order; everything else never produces a progress point.
    if (cp == 0 || cp > n || cp < done) continue;
    feed_blocks(store, done, cp, add);
    done = cp;
    const sca::CpaEngine folded = cls.fold(model.pattern().data());
    result.progress.push_back(sca::snapshot_progress(folded, correct_guess));
  }
  if (result.progress.empty() || result.progress.back().traces != n) {
    feed_blocks(store, done, n, add);
    done = n;
    const sca::CpaEngine folded = cls.fold(model.pattern().data());
    result.progress.push_back(sca::snapshot_progress(folded, correct_guess));
  }

  result.traces = n;
  result.recovered_guess =
      static_cast<std::uint8_t>(result.progress.back().best_guess);
  result.key_recovered = result.recovered_guess == correct_guess;
  result.mtd = sca::estimate_mtd(result.progress);
  result.replay_seconds = obs::monotonic_seconds() - t0;
  note_replay(observer, "attack", n, result.replay_seconds);
  return result;
}

ReplayFullKeyResult replay_fullkey(const TraceStoreReader& store,
                                   const std::vector<std::size_t>& checkpoints,
                                   const crypto::Block& true_last_round_key,
                                   const ReplayFullKeyOptions& opts,
                                   obs::CampaignObserver* observer) {
  require_kind(store, StoreKind::kFullKey);
  const double t0 = obs::monotonic_seconds();
  constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;
  const StoreIdentity& id = store.identity();
  const std::size_t n = store.trace_count();

  const std::vector<sca::LastRoundBitModel> models = byte_models(id.target_bit);

  ReplayFullKeyResult result;
  for (std::size_t j = 0; j < kBytes; ++j) {
    result.bytes[j].correct = models[j].correct_guess(true_last_round_key);
  }

  sca::MultiByteCpa acc(store.samples());
  std::vector<std::uint8_t> clsv(store.chunk_traces() * kBytes);
  std::vector<std::uint8_t> clsb(store.chunk_traces() * kBytes);
  const auto add = [&](std::size_t first, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const crypto::Block ct = store.ciphertext(first + i);
      for (std::size_t j = 0; j < kBytes; ++j) {
        clsv[i * kBytes + j] = models[j].class_value(ct);
        clsb[i * kBytes + j] = models[j].class_bit(ct);
      }
    }
    acc.add_block(clsv.data(), clsb.data(), store.readings(first), count);
  };

  FullKeyFolder folder(&models, &opts, &result);
  std::size_t done = 0;
  for (const std::size_t cp : checkpoints) {
    if (cp == 0 || cp > n || cp < done) continue;
    feed_blocks(store, done, cp, add);
    done = cp;
    folder.fold_at(acc, cp);
  }
  // The live capture pass always runs to the full trace count even when
  // every byte froze early; feed the tail so unfrozen folds see all n.
  feed_blocks(store, done, n, add);
  folder.finish(acc, n);
  result.replay_seconds = obs::monotonic_seconds() - t0;
  note_replay(observer, "full-key", n, result.replay_seconds);
  return result;
}

ReplayTvlaResult replay_tvla(const TraceStoreReader& store,
                             obs::CampaignObserver* observer) {
  require_kind(store, StoreKind::kTvla);
  const double t0 = obs::monotonic_seconds();
  const std::size_t n = store.trace_count();

  sca::WelchTTest ttest(store.samples());
  std::vector<double> y(store.samples());
  for (std::size_t t = 0; t < n; ++t) {
    std::memcpy(y.data(), store.readings(t), y.size() * sizeof(double));
    ttest.add((t % 2) == 0, y);
  }

  ReplayTvlaResult result;
  result.max_abs_t = ttest.max_abs_t();
  result.leakage_detected = ttest.leakage_detected();
  result.fixed_traces = ttest.fixed_traces();
  result.random_traces = ttest.random_traces();
  result.traces = n;
  result.replay_seconds = obs::monotonic_seconds() - t0;
  note_replay(observer, "tvla", n, result.replay_seconds);
  return result;
}

ReplayAllResult replay_all(const TraceStoreReader& store,
                           const std::vector<std::size_t>& checkpoints,
                           const crypto::Block& true_last_round_key,
                           const ReplayAllOptions& opts,
                           obs::CampaignObserver* observer) {
  const double t0 = obs::monotonic_seconds();
  ReplayAllResult result;
  const std::size_t n = store.trace_count();
  result.traces = n;

  if (store.kind() == StoreKind::kTvla) {
    if (opts.attack || opts.fullkey) {
      throw StoreMismatch("store replay_all: '" + store.path() +
                          "' holds a tvla capture — only the tvla analysis "
                          "applies; drop attack/fullkey");
    }
    if (opts.tvla) {
      result.tvla = replay_tvla(store, observer);
      result.has_tvla = true;
    }
    result.replay_seconds = obs::monotonic_seconds() - t0;
    return result;
  }
  if (!opts.attack && !opts.fullkey && !opts.tvla) return result;

  // Attack-kind store (kByteCampaign or kFullKey): the class labels for
  // every byte derive from the stored ciphertexts alone, so one sweep
  // can feed all three folds from the same cache-resident blocks. The
  // attack fold comes from the fused 16-byte tile when fullkey rides
  // along (MultiByteCpa::fold(target) is bit-identical to a standalone
  // XorClassCpa — multibyte_cpa_test), and from a plain XorClassCpa
  // otherwise, so an attack-only fused pass never pays the 16x tile.
  constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;
  const StoreIdentity& id = store.identity();
  const std::size_t target = static_cast<std::size_t>(id.target_key_byte);
  const std::vector<sca::LastRoundBitModel> models = byte_models(id.target_bit);

  const bool want_mb = opts.fullkey;
  const bool want_xor = opts.attack && !opts.fullkey;

  std::optional<sca::MultiByteCpa> acc;
  std::optional<sca::XorClassCpa> cls;
  std::optional<sca::WelchTTest> ttest;
  if (want_mb) acc.emplace(store.samples());
  if (want_xor) cls.emplace(store.samples());
  if (opts.tvla) ttest.emplace(store.samples());

  std::vector<std::uint8_t> mbv(want_mb ? store.chunk_traces() * kBytes : 0);
  std::vector<std::uint8_t> mbb(want_mb ? store.chunk_traces() * kBytes : 0);
  std::vector<std::uint8_t> v(want_mb ? 0 : store.chunk_traces());
  std::vector<std::uint8_t> b(want_mb ? 0 : store.chunk_traces());
  const auto add = [&](std::size_t first, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const crypto::Block ct = store.ciphertext(first + i);
      std::uint8_t bit = 0;
      if (want_mb) {
        for (std::size_t j = 0; j < kBytes; ++j) {
          mbv[i * kBytes + j] = models[j].class_value(ct);
          mbb[i * kBytes + j] = models[j].class_bit(ct);
        }
        bit = mbb[i * kBytes + target];
      } else {
        v[i] = models[target].class_value(ct);
        b[i] = models[target].class_bit(ct);
        bit = b[i];
      }
      // Specific t-test: populations partitioned by the target model's
      // predicted class bit, fed zero-copy out of the mapping.
      if (ttest) ttest->add(bit == 0, store.readings(first + i));
    }
    if (acc) acc->add_block(mbv.data(), mbb.data(), store.readings(first),
                            count);
    if (cls) cls->add_block(v.data(), b.data(), store.readings(first), count);
  };

  if (opts.attack) {
    result.has_attack = true;
    result.attack.correct_guess =
        models[target].correct_guess(true_last_round_key);
  }
  if (opts.fullkey) {
    result.has_fullkey = true;
    for (std::size_t j = 0; j < kBytes; ++j) {
      result.fullkey.bytes[j].correct =
          models[j].correct_guess(true_last_round_key);
    }
  }
  // With fullkey riding along, the folder has usually just folded the
  // target byte at this same trace count (until that byte early-exits).
  // Its point is exactly what the attack fold would compute, so reuse it
  // instead of folding the same tile row twice.
  const auto fold_attack = [&](std::size_t traces) {
    const std::vector<sca::CpaProgressPoint>& shared =
        result.fullkey.bytes[target].progress;
    if (opts.fullkey && !shared.empty() && shared.back().traces == traces) {
      result.attack.progress.push_back(shared.back());
      return;
    }
    const sca::CpaEngine folded =
        want_mb ? acc->fold(target, models[target].pattern().data())
                : cls->fold(models[target].pattern().data());
    result.attack.progress.push_back(
        sca::snapshot_progress(folded, result.attack.correct_guess));
  };

  FullKeyFolder folder(&models, &opts.fullkey_opts, &result.fullkey);
  std::size_t done = 0;
  if (opts.attack || opts.fullkey) {
    for (const std::size_t cp : checkpoints) {
      if (cp == 0 || cp > n || cp < done) continue;
      feed_blocks(store, done, cp, add);
      done = cp;
      if (opts.fullkey) folder.fold_at(*acc, cp);
      if (opts.attack) fold_attack(cp);
    }
  }
  feed_blocks(store, done, n, add);

  if (opts.fullkey) folder.finish(*acc, n);
  if (opts.attack) {
    if (result.attack.progress.empty() ||
        result.attack.progress.back().traces != n) {
      fold_attack(n);
    }
    result.attack.traces = n;
    result.attack.recovered_guess =
        static_cast<std::uint8_t>(result.attack.progress.back().best_guess);
    result.attack.key_recovered =
        result.attack.recovered_guess == result.attack.correct_guess;
    result.attack.mtd = sca::estimate_mtd(result.attack.progress);
  }
  if (opts.tvla) {
    result.has_tvla = true;
    result.tvla.max_abs_t = ttest->max_abs_t();
    result.tvla.leakage_detected = ttest->leakage_detected();
    result.tvla.fixed_traces = ttest->fixed_traces();
    result.tvla.random_traces = ttest->random_traces();
    result.tvla.traces = n;
  }

  result.replay_seconds = obs::monotonic_seconds() - t0;
  // Every populated section shares the one-pass sweep's wall time.
  result.attack.replay_seconds = result.replay_seconds;
  result.fullkey.replay_seconds = result.replay_seconds;
  result.tvla.replay_seconds = result.replay_seconds;
  note_replay(observer, "fused", n, result.replay_seconds);
  return result;
}

}  // namespace slm::store
