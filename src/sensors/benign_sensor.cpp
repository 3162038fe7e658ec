#include "sensors/benign_sensor.hpp"

#include <algorithm>

#include "common/dispatch.hpp"
#include "common/error.hpp"

namespace slm::sensors {

BenignSensor::BenignSensor(const netlist::Netlist& nl,
                           const BitVec& reset_stimulus,
                           const BitVec& measure_stimulus,
                           const BenignSensorConfig& cfg) {
  SLM_REQUIRE(!nl.outputs().empty(), "BenignSensor: circuit has no endpoints");
  timing::TimedSimulator sim(nl);
  transition_ = sim.simulate_transition(reset_stimulus, measure_stimulus);
  capture_ = std::make_unique<timing::OverclockedCapture>(
      transition_.endpoint_waveforms, cfg.capture, cfg.seed);
  compiled_ = std::make_unique<timing::CompiledCapture>(*capture_);
}

bool BenignSensor::sample_toggle_bit(std::size_t i, double v,
                                     Xoshiro256& rng) const {
  const bool captured = capture_->sample_bit(i, v, rng);
  return captured != transition_.endpoint_waveforms[i].initial_value();
}

std::size_t BenignSensor::sample_toggle_hw(
    const std::vector<std::size_t>& bits, double v, Xoshiro256& rng) const {
  const BitVec captured = capture_->sample_subset(bits, v, rng);
  std::size_t hw = 0;
  for (std::size_t i : bits) {
    if (captured.get(i) != transition_.endpoint_waveforms[i].initial_value()) {
      ++hw;
    }
  }
  return hw;
}

double BenignSensor::max_settle_time_ns() const {
  double worst = 0.0;
  for (const auto& wf : transition_.endpoint_waveforms) {
    worst = std::max(worst, wf.settle_time());
  }
  return worst;
}

void BenignSensorBank::add(std::shared_ptr<const BenignSensor> sensor) {
  SLM_REQUIRE(sensor != nullptr, "BenignSensorBank: null sensor");
  sensors_.push_back(std::move(sensor));
}

std::size_t BenignSensorBank::endpoint_count() const {
  std::size_t n = 0;
  for (const auto& s : sensors_) n += s->endpoint_count();
  return n;
}

BitVec BenignSensorBank::sample_toggles(double v, Xoshiro256& rng) const {
  SLM_REQUIRE(!sensors_.empty(), "BenignSensorBank: empty bank");
  BitVec word(endpoint_count());
  std::size_t base = 0;
  for (const auto& s : sensors_) {
    const BitVec part = s->sample_toggles(v, rng);
    for (std::size_t i = 0; i < part.size(); ++i) {
      word.set(base + i, part.get(i));
    }
    base += part.size();
  }
  return word;
}

bool BenignSensorBank::sample_toggle_bit(std::size_t global_i, double v,
                                         Xoshiro256& rng) const {
  std::size_t base = 0;
  for (const auto& s : sensors_) {
    if (global_i < base + s->endpoint_count()) {
      return s->sample_toggle_bit(global_i - base, v, rng);
    }
    base += s->endpoint_count();
  }
  throw Error("BenignSensorBank::sample_toggle_bit: index out of range");
}

std::size_t BenignSensorBank::sample_toggle_hw(
    const std::vector<std::size_t>& global_bits, double v,
    Xoshiro256& rng) const {
  SLM_REQUIRE(!sensors_.empty(), "BenignSensorBank: empty bank");
  // Split the global indices per instance, preserving one common-jitter
  // draw per instance (matching sample_toggles semantics).
  std::size_t hw = 0;
  std::size_t base = 0;
  std::vector<std::size_t> local;
  for (const auto& s : sensors_) {
    local.clear();
    for (std::size_t g : global_bits) {
      if (g >= base && g < base + s->endpoint_count()) {
        local.push_back(g - base);
      }
    }
    if (!local.empty()) {
      hw += s->sample_toggle_hw(local, v, rng);
    }
    base += s->endpoint_count();
  }
  return hw;
}

const BenignSensor& BenignSensorBank::instance(std::size_t i) const {
  SLM_REQUIRE(i < sensors_.size(), "BenignSensorBank: bad instance");
  return *sensors_[i];
}

BenignSensorBank::CompiledHwPlan BenignSensorBank::compile_hw_plan(
    const std::vector<std::size_t>& global_bits) const {
  SLM_REQUIRE(!sensors_.empty(), "BenignSensorBank: empty bank");
  CompiledHwPlan plan;
  std::size_t base = 0;
  for (const auto& s : sensors_) {
    CompiledHwPlan::Part part;
    for (std::size_t g : global_bits) {
      if (g >= base && g < base + s->endpoint_count()) {
        part.idx.push_back(static_cast<std::uint32_t>(g - base));
      }
    }
    if (!part.idx.empty()) {
      part.packed = s->compiled().pack_subset(part.idx);
      plan.draws_per_sample += 1 + part.idx.size();
      plan.parts.push_back(std::move(part));
    }
    base += s->endpoint_count();
  }
  // One capture clock across all instances (the usual case) lets the
  // batch kernel divide once per sample and reuse the nominal instant.
  plan.uniform_clock = true;
  for (const auto& part : plan.parts) {
    plan.uniform_clock =
        plan.uniform_clock && plan.parts.front().packed.same_clock(part.packed);
  }
  return plan;
}

namespace {

using CompiledHwPlan = BenignSensorBank::CompiledHwPlan;

// The scalar reference: n samples, one at a time in the per-call API's
// order, sample j reading v[j] and the draws z[j * draws_per_sample ..].
void hw_scalar(const CompiledHwPlan& plan, const double* v, std::size_t n,
               const double* z, double* y) {
  const double* d = z;
  for (std::size_t j = 0; j < n; ++j) {
    std::uint32_t hw = 0;
    if (plan.uniform_clock && !plan.parts.empty()) {
      // One division per sample serves every part: nominal_time is the
      // same expression whichever part computes it under one clock.
      const double t_nom = plan.parts.front().packed.nominal_time(v[j]);
      for (const auto& part : plan.parts) {
        hw += part.packed.hw_at_nominal(t_nom, d);
        d += 1 + part.packed.size();
      }
    } else {
      for (const auto& part : plan.parts) {
        hw += part.packed.hw_from_draws(v[j], d);
        d += 1 + part.packed.size();
      }
    }
    y[j] = static_cast<double>(hw);
  }
}

#if defined(__x86_64__)
#define SLM_LANES_TARGET __attribute__((target("avx2")))

// Four lanes' normals from a caller's slab: lane j's next draw is
// z[j * stride], and each call moves one draw along.
struct BufferDraw {
  const double* z;
  __m256i offsets;  // 0, stride, 2 * stride, 3 * stride
  SLM_LANES_TARGET __m256d operator()() {
    return _mm256_i64gather_pd(z++, offsets, 8);
  }
};

// toggle_hw_block over lanes [0, lanes - lanes % 4); returns that count.
// Four lanes at a time run hw_scalar's steps, each part's draws in plan
// order.
SLM_LANES_TARGET std::size_t block4(const CompiledHwPlan& plan,
                                    const double* v, std::size_t lanes,
                                    const double* z, double* y) {
  const auto dps = static_cast<long long>(plan.draws_per_sample);
  const __m256i offsets = _mm256_set_epi64x(3 * dps, 2 * dps, dps, 0);
  // A count below 2^52 is exact in a double: OR it into 2^52's mantissa
  // and subtract 2^52.
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const std::size_t body = lanes - lanes % 4;
  for (std::size_t l = 0; l < body; l += 4) {
    BufferDraw draw{z + l * plan.draws_per_sample, offsets};
    const __m256d v4 = _mm256_loadu_pd(v + l);
    __m256i hw = _mm256_setzero_si256();
    if (plan.uniform_clock && !plan.parts.empty()) {
      const __m256d t_nom = plan.parts.front().packed.nominal_time4(v4);
      for (const auto& part : plan.parts) {
        hw = _mm256_add_epi64(hw, part.packed.hw4(t_nom, draw));
      }
    } else {
      for (const auto& part : plan.parts) {
        hw = _mm256_add_epi64(
            hw, part.packed.hw4(part.packed.nominal_time4(v4), draw));
      }
    }
    _mm256_storeu_pd(
        y + l,
        _mm256_sub_pd(_mm256_castsi256_pd(
                          _mm256_or_si256(hw, _mm256_castpd_si256(two52))),
                      two52));
  }
  return body;
}
#undef SLM_LANES_TARGET
#endif

}  // namespace

void BenignSensorBank::toggle_hw_block(const CompiledHwPlan& plan,
                                       const double* v, std::size_t lanes,
                                       const double* z, double* y,
                                       bool simd) const {
  std::size_t l = 0;
#if defined(__x86_64__)
  if (simd && active_dispatch() == DispatchLevel::kAvx2) {
    l = block4(plan, v, lanes, z, y);
  }
#else
  (void)simd;
#endif
  hw_scalar(plan, v + l, lanes - l, z + l * plan.draws_per_sample, y + l);
}

BenignSensorBank::CompiledBitPlan BenignSensorBank::compile_bit_plan(
    std::size_t global_i) const {
  std::size_t base = 0;
  for (const auto& s : sensors_) {
    if (global_i < base + s->endpoint_count()) {
      return CompiledBitPlan{&s->compiled(), global_i - base};
    }
    base += s->endpoint_count();
  }
  throw Error("BenignSensorBank::compile_bit_plan: index out of range");
}

void BenignSensorBank::toggle_bit_block(const CompiledBitPlan& plan,
                                        const double* v, std::size_t n,
                                        const double* z, double* y) const {
  for (std::size_t j = 0; j < n; ++j) {
    y[j] = plan.cap->toggle_from_draws(plan.local, v[j], &z[2 * j]) ? 1.0
                                                                    : 0.0;
  }
}

void BenignSensorBank::toggle_accumulate_block(const double* v, std::size_t n,
                                               const double* z,
                                               std::size_t* ones) const {
  SLM_REQUIRE(!sensors_.empty(), "BenignSensorBank: empty bank");
  const double* d = z;
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t base = 0;
    for (const auto& s : sensors_) {
      s->compiled().toggles_from_draws(v[j], d, ones + base);
      d += 1 + s->endpoint_count();
      base += s->endpoint_count();
    }
  }
}

}  // namespace slm::sensors
