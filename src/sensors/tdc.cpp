#include "sensors/tdc.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace slm::sensors {

TdcSensor::TdcSensor(const TdcConfig& cfg) : cfg_(cfg) {
  SLM_REQUIRE(cfg_.stages >= 2, "TdcSensor: need >= 2 stages");
  SLM_REQUIRE(cfg_.stage_delay_ns > 0 && cfg_.window_ns > 0,
              "TdcSensor: delays must be positive");
}

double TdcSensor::depth(double v) const {
  return cfg_.window_ns / (cfg_.stage_delay_ns * cfg_.delay.factor(v));
}

std::uint32_t TdcSensor::sample(double v, Xoshiro256& rng) const {
  return sample_from_draw(v, FastNormal::instance()(rng));
}

std::uint32_t TdcSensor::sample_from_draw(double v, double z) const {
  const double clamped =
      std::clamp(noisy_depth(v, z), 0.0, static_cast<double>(cfg_.stages));
  return static_cast<std::uint32_t>(clamped);
}

BitVec TdcSensor::sample_word(double v, Xoshiro256& rng) const {
  const std::uint32_t n = sample(v, rng);
  BitVec word(cfg_.stages);
  for (std::size_t i = 0; i < cfg_.stages && i < n; ++i) word.set(i, true);
  return word;
}

bool TdcSensor::sample_bit(std::size_t i, double v, Xoshiro256& rng) const {
  return sample_bit_from_draw(i, v, FastNormal::instance()(rng));
}

bool TdcSensor::sample_bit_from_draw(std::size_t i, double v, double z) const {
  SLM_REQUIRE(i < cfg_.stages, "TdcSensor::sample_bit: stage out of range");
  return noisy_depth(v, z) > static_cast<double>(i);
}

double TdcSensor::idle_depth() const { return depth(cfg_.delay.vnom); }

}  // namespace slm::sensors
