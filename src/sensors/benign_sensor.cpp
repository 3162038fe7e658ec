#include "sensors/benign_sensor.hpp"

#include <algorithm>

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

void BenignSensorBank::toggle_hw_batch(const CompiledHwPlan& plan,
                                       const double* v, std::size_t n,
                                       Xoshiro256& rng, double* y) const {
  if (plan.draws_per_sample == 0) {
    for (std::size_t j = 0; j < n; ++j) y[j] = 0.0;
    return;
  }
  thread_local std::vector<double> z;
  z.resize(n * plan.draws_per_sample);
  FastNormal::instance().fill(rng, z.data(), z.size());
  const double* d = z.data();
  if (plan.uniform_clock) {
    for (std::size_t j = 0; j < n; ++j) {
      const double t_nom = plan.parts.front().packed.nominal_time(v[j]);
      std::uint32_t hw = 0;
      for (const auto& part : plan.parts) {
        hw += part.packed.hw_at_nominal(t_nom, d);
        d += 1 + part.packed.size();
      }
      y[j] = static_cast<double>(hw);
    }
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    std::uint32_t hw = 0;
    for (const auto& part : plan.parts) {
      hw += part.packed.hw_from_draws(v[j], d);
      d += 1 + part.packed.size();
    }
    y[j] = static_cast<double>(hw);
  }
}

void BenignSensorBank::toggle_hw_block(const CompiledHwPlan& plan,
                                       const double* v, std::size_t lanes,
                                       const double* z, double* y,
                                       bool simd) const {
  if (plan.draws_per_sample == 0) {
    for (std::size_t l = 0; l < lanes; ++l) y[l] = 0.0;
    return;
  }
  if (!simd) {
    // Scalar reference dispatch (SLM_SIMD=0): the exact per-sample loop
    // of toggle_hw_batch, just reading caller-provided draws.
    const double* d = z;
    if (plan.uniform_clock) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const double t_nom = plan.parts.front().packed.nominal_time(v[l]);
        std::uint32_t hw = 0;
        for (const auto& part : plan.parts) {
          hw += part.packed.hw_at_nominal(t_nom, d);
          d += 1 + part.packed.size();
        }
        y[l] = static_cast<double>(hw);
      }
      return;
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      std::uint32_t hw = 0;
      for (const auto& part : plan.parts) {
        hw += part.packed.hw_from_draws(v[l], d);
        d += 1 + part.packed.size();
      }
      y[l] = static_cast<double>(hw);
    }
    return;
  }
  thread_local std::vector<std::uint32_t> hw;
  thread_local std::vector<double> t_nom;
  thread_local timing::PackedToggleSubset::BlockScratch scratch;
  hw.assign(lanes, 0);
  t_nom.resize(lanes);
  // nominal_time is the same expression whichever part computes it under
  // a uniform clock, so one lane-major pass serves every part — exactly
  // the division-sharing toggle_hw_batch does per sample.
  std::size_t off = 0;
  if (plan.uniform_clock) {
    const auto& front = plan.parts.front().packed;
    for (std::size_t l = 0; l < lanes; ++l) t_nom[l] = front.nominal_time(v[l]);
    for (const auto& part : plan.parts) {
      part.packed.hw_block(t_nom.data(), lanes, z + off, plan.draws_per_sample,
                           hw.data(), scratch);
      off += 1 + part.packed.size();
    }
  } else {
    for (const auto& part : plan.parts) {
      for (std::size_t l = 0; l < lanes; ++l) {
        t_nom[l] = part.packed.nominal_time(v[l]);
      }
      part.packed.hw_block(t_nom.data(), lanes, z + off, plan.draws_per_sample,
                           hw.data(), scratch);
      off += 1 + part.packed.size();
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) y[l] = static_cast<double>(hw[l]);
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

void BenignSensorBank::toggle_accumulate_batch(const double* v, std::size_t n,
                                               Xoshiro256& rng,
                                               std::size_t* ones) const {
  SLM_REQUIRE(!sensors_.empty(), "BenignSensorBank: empty bank");
  std::size_t draws_per_sample = 0;
  for (const auto& s : sensors_) draws_per_sample += 1 + s->endpoint_count();
  thread_local std::vector<double> z;
  z.resize(n * draws_per_sample);
  FastNormal::instance().fill(rng, z.data(), z.size());
  const double* d = z.data();
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
