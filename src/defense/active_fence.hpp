// Active fence countermeasure (Krautter et al., ICCAD'19; Glamocanin et
// al., DDECS'23 — the "hiding" defences the paper's related-work section
// points to): a ring of always-on noise generators around the victim
// that injects randomised switching current into the shared PDN, lowering
// the SNR any voltage sensor — conspicuous or benign — can extract.
//
// Model: per victim clock cycle the fence draws a base current plus a
// uniformly re-randomised component. The randomisation is the defence;
// the base only shifts the DC point.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace slm::defense {

struct ActiveFenceConfig {
  /// Mean fence draw (A). Shifts the operating point only.
  double base_current_a = 0.05;

  /// Peak-to-peak randomised component (A), re-drawn every victim cycle.
  /// This is the knob that buys SNR reduction for power cost.
  double random_current_a = 0.0;

  std::uint64_t seed = 0xfe9ce;

  bool operator==(const ActiveFenceConfig&) const = default;
};

class ActiveFence {
 public:
  explicit ActiveFence(const ActiveFenceConfig& cfg);

  /// Counter-indexed fence stream for determinism contract v2: the
  /// stream for trace `trace_index`, derived statelessly from the fence
  /// seed via Xoshiro256::trace_stream with the fence domain constant.
  /// Any lane can materialise any trace's fence draws independently.
  Xoshiro256 trace_rng(std::uint64_t trace_index) const {
    return Xoshiro256::trace_stream(cfg_.seed, kTraceDomainFence,
                                    trace_index);
  }

  /// One cycle's fence current drawn from a caller-owned stream (a
  /// trace's trace_rng, drawn cycle-ascending).
  double cycle_current(Xoshiro256& rng) const {
    return cfg_.base_current_a + rng.uniform() * cfg_.random_current_a;
  }

  /// Average power-overhead current (A) — what the defender pays.
  double mean_current_a() const {
    return cfg_.base_current_a + 0.5 * cfg_.random_current_a;
  }

  const ActiveFenceConfig& config() const { return cfg_; }

 private:
  ActiveFenceConfig cfg_;
};

}  // namespace slm::defense
