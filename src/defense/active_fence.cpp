#include "defense/active_fence.hpp"

#include "common/error.hpp"

namespace slm::defense {

ActiveFence::ActiveFence(const ActiveFenceConfig& cfg) : cfg_(cfg) {
  SLM_REQUIRE(cfg_.base_current_a >= 0.0 && cfg_.random_current_a >= 0.0,
              "ActiveFence: currents must be non-negative");
}

}  // namespace slm::defense
