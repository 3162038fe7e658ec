#include "sensors/ro_sensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace slm::sensors {

RoCounterSensor::RoCounterSensor(const RoSensorConfig& cfg) : cfg_(cfg) {
  SLM_REQUIRE(cfg_.inverter_stages >= 1 && cfg_.inverter_stages % 2 == 1,
              "RoCounterSensor: odd inverter count required");
  SLM_REQUIRE(cfg_.inverter_delay_ns > 0 && cfg_.count_window_ns > 0,
              "RoCounterSensor: delays must be positive");
}

double RoCounterSensor::frequency_mhz(double v) const {
  const double period_ns = 2.0 * static_cast<double>(cfg_.inverter_stages) *
                           cfg_.inverter_delay_ns * cfg_.delay.factor(v);
  return 1000.0 / period_ns;
}

double RoCounterSensor::expected_count(double v) const {
  return frequency_mhz(v) / 1000.0 * cfg_.count_window_ns;
}

std::uint32_t RoCounterSensor::sample(double v, Xoshiro256& rng) const {
  return sample_from_draw(v, FastNormal::instance()(rng));
}

std::uint32_t RoCounterSensor::sample_from_draw(double v, double z) const {
  const double noisy =
      expected_count(v) + (0.0 + cfg_.phase_noise_counts * z);
  return static_cast<std::uint32_t>(std::max(0.0, noisy));
}

}  // namespace slm::sensors
