#include "store/replay.hpp"

#include <algorithm>
#include <optional>

#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sca/model.hpp"
#include "sca/tvla.hpp"

namespace slm::store {

namespace {

// The store_replay event's `kind` names the one section swept (a kTvla
// store allows only "tvla"), or "fused" when several share the sweep.
void note_replay(obs::CampaignObserver* ob, const ReplayAllOptions& o,
                 std::size_t traces, double seconds) {
  if (ob == nullptr) return;
  const char* kind = o.attack + o.fullkey + o.tvla > 1 ? "fused"
                     : o.attack                        ? "attack"
                     : o.fullkey                       ? "full-key"
                                                       : "tvla";
  ob->metrics().add("slm.store.traces_replayed",
                    static_cast<double>(traces));
  ob->metrics().observe("slm.store.replay_seconds", seconds);
  ob->event("store_replay",
            obs::JsonWriter()
                .field("kind", kind)
                .field("traces", static_cast<std::uint64_t>(traces))
                .field("seconds", seconds));
}

// The kTvla store sweep: trace 2k is the fixed population, 2k+1 the
// random one (the interleaving run_tvla captures), fed in stored order.
void sweep_tvla_store(const TraceStoreReader& store, sca::WelchTTest& ttest) {
  for (std::size_t t = 0; t < store.trace_count(); ++t) {
    ttest.add((t % 2) == 0, store.readings(t));
  }
}

// The attack-kind sweep (kByteCampaign or kFullKey: the labels for every
// byte derive from the stored ciphertexts alone): one pass feeds the
// requested folds from the same cache-resident blocks and folds them at
// the live engines' checkpoints with their label step and early-exit
// tracker.
void sweep_attack_store(const TraceStoreReader& store,
                        const std::vector<std::size_t>& checkpoints,
                        const crypto::Block& true_last_round_key,
                        const ReplayAllOptions& opts, sca::WelchTTest* ttest,
                        ReplayAllResult& result) {
  const StoreIdentity& id = store.identity();
  const std::size_t n = store.trace_count();
  const std::size_t target = static_cast<std::size_t>(id.target_key_byte);
  const std::vector<sca::LastRoundBitModel> target_only{
      sca::LastRoundBitModel(target, id.target_bit)};
  std::optional<sca::EarlyExitTracker> tracker;
  if (opts.fullkey) {
    tracker.emplace(opts.fullkey_opts, id.target_bit, true_last_round_key,
                    result.fullkey.bytes);
  }
  // The attack fold comes from the fused 16-byte tile when fullkey rides
  // along and from a plain XorClassCpa otherwise, so an attack-only pass
  // never pays the 16x tile.
  const std::vector<sca::LastRoundBitModel>& models =
      tracker ? tracker->models() : target_only;
  const std::size_t m = models.size();
  const std::size_t target_label = tracker ? target : 0;
  std::optional<sca::MultiByteCpa> acc;
  std::optional<sca::XorClassCpa> cls;
  if (tracker) {
    acc.emplace(store.samples());
  } else if (opts.attack) {
    cls.emplace(store.samples());
  }

  const std::size_t chunk = store.chunk_traces();
  std::vector<std::uint8_t> v(chunk * m);
  std::vector<std::uint8_t> b(chunk * m);
  const auto add = [&](std::size_t first, std::size_t count) {
    sca::label_classes(models, store.ciphertext_ptr(first), count, v.data(),
                       b.data());
    // Specific t-test: populations partitioned by the target model's
    // predicted class bit, fed zero-copy out of the mapping.
    for (std::size_t i = 0; ttest != nullptr && i < count; ++i) {
      ttest->add(b[i * m + target_label] == 0, store.readings(first + i));
    }
    if (acc) acc->add_block(v.data(), b.data(), store.readings(first), count);
    if (cls) cls->add_block(v.data(), b.data(), store.readings(first), count);
  };

  ReplayAttackResult& at = result.attack;
  at.correct_guess = target_only[0].correct_guess(true_last_round_key);
  // With fullkey riding along, the tracker has usually just folded the
  // target byte at this same trace count (until that byte early-exits).
  // Its point is exactly what the attack fold would compute, so reuse it
  // instead of folding the same tile row twice.
  const auto fold_attack = [&](std::size_t traces) {
    const std::vector<sca::CpaProgressPoint>& shared =
        result.fullkey.bytes[target].progress;
    if (tracker && !shared.empty() && shared.back().traces == traces) {
      at.progress.push_back(shared.back());
      return;
    }
    const std::uint8_t* pattern = target_only[0].pattern().data();
    at.progress.push_back(sca::snapshot_progress(
        acc ? acc->fold(target, pattern) : cls->fold(pattern),
        at.correct_guess));
  };

  std::size_t done = 0;
  for (const std::size_t cp : sca::checkpoint_schedule(checkpoints, n)) {
    // Feed [done, cp) in store-chunk-aligned blocks. Any regrouping of
    // the add_block calls lands on bit-identical accumulator sums
    // (partition invariance, sca/cpa.hpp), so chunk-sized blocks are
    // purely a cache choice — the chunk-boundary-invariance test pins
    // that the results do not depend on it.
    while (done < cp) {
      const std::size_t end = std::min(cp, (done / chunk + 1) * chunk);
      add(done, end - done);
      done = end;
    }
    if (tracker) tracker->fold_at(*acc, cp);
    if (opts.attack) fold_attack(cp);
  }

  if (tracker) {
    tracker->finish();
    ReplayFullKeyResult& fk = result.fullkey;
    fk.success = true;
    for (std::size_t j = 0; j < fk.bytes.size(); ++j) {
      fk.recovered_last_round_key[j] = fk.bytes[j].recovered;
      if (fk.bytes[j].early_exited) ++fk.bytes_early_exited;
      fk.success = fk.success && fk.bytes[j].success;
    }
    fk.traces = n;
    result.has_fullkey = true;
  }
  if (opts.attack) {
    at.traces = n;
    at.recovered_guess =
        static_cast<std::uint8_t>(at.progress.back().best_guess);
    at.key_recovered = at.recovered_guess == at.correct_guess;
    at.mtd = sca::estimate_mtd(at.progress);
    result.has_attack = true;
  }
}

}  // namespace

ReplayAllResult replay_all(const TraceStoreReader& store,
                           const std::vector<std::size_t>& checkpoints,
                           const crypto::Block& true_last_round_key,
                           const ReplayAllOptions& opts,
                           obs::CampaignObserver* observer) {
  const double t0 = obs::monotonic_seconds();
  ReplayAllResult result;
  const std::size_t n = store.trace_count();
  result.traces = n;
  if (store.kind() == StoreKind::kTvla && (opts.attack || opts.fullkey)) {
    throw StoreMismatch("store replay_all: '" + store.path() +
                        "' holds a tvla capture — only the tvla analysis "
                        "applies; drop attack/fullkey");
  }
  if (!opts.attack && !opts.fullkey && !opts.tvla) return result;

  std::optional<sca::WelchTTest> ttest;
  if (opts.tvla) ttest.emplace(store.samples());
  if (store.kind() == StoreKind::kTvla) {
    sweep_tvla_store(store, *ttest);
  } else {
    sweep_attack_store(store, checkpoints, true_last_round_key, opts,
                       ttest ? &*ttest : nullptr, result);
  }
  if (ttest) {
    result.has_tvla = true;
    result.tvla.max_abs_t = ttest->max_abs_t();
    result.tvla.leakage_detected = ttest->leakage_detected();
    result.tvla.fixed_traces = ttest->fixed_traces();
    result.tvla.random_traces = ttest->random_traces();
    result.tvla.traces = n;
  }

  result.replay_seconds = obs::monotonic_seconds() - t0;
  note_replay(observer, opts, n, result.replay_seconds);
  return result;
}

}  // namespace slm::store
