#include "core/attack.hpp"

#include <gtest/gtest.h>

namespace slm::core {
namespace {

TEST(StealthyAttack, TdcRecoversTargetByte) {
  StealthyAttack attack(BenignCircuit::kAlu);
  const auto report =
      attack.recover_key_byte(3, 4000, SensorMode::kTdcFull);
  EXPECT_EQ(report.key_byte, 3u);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.recovered, report.true_value);
  EXPECT_EQ(report.true_value,
            attack.setup().victim().cipher().last_round_key()[3]);
}

TEST(StealthyAttack, DifferentBytesGiveDifferentWindows) {
  // Bytes in different state columns leak in different cycles; both must
  // still be recoverable with the fast sensor.
  StealthyAttack attack(BenignCircuit::kAlu);
  for (const std::size_t b : {0, 7}) {
    const auto r = attack.recover_key_byte(b, 4000, SensorMode::kTdcFull);
    EXPECT_TRUE(r.success) << "byte " << r.key_byte;
  }
}

TEST(StealthyAttack, BenignCircuitPassesChecker) {
  for (auto kind : {BenignCircuit::kAlu, BenignCircuit::kC6288x2}) {
    StealthyAttack attack(kind);
    const auto report = attack.check_stealthiness();
    EXPECT_TRUE(report.passed())
        << benign_circuit_name(kind) << ": " << report.summary();
  }
}

TEST(StealthyAttack, StrictTimingCheckWouldCatchIt) {
  StealthyAttack attack(BenignCircuit::kAlu);
  bitstream::CheckerOptions strict;
  strict.operating_clock_period_ns =
      attack.setup().calibration().overclock_period_ns();
  const auto report = attack.check_stealthiness(strict);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(report.flagged(bitstream::CheckKind::kStrictTiming));
}

}  // namespace
}  // namespace slm::core
