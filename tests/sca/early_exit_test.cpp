// The full-key early-exit tracker (sca/fold.hpp) on scripted progress
// points: each gate of FullKeyConfig, the freeze, and checkpoint
// save/restore. The live engines and store replay both decide through
// this tracker, so these cases pin the decisions for both.
#include "sca/fold.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace slm::sca {
namespace {

using Bytes = std::array<FullKeyByteResult, MultiByteCpa::kBytes>;

// One scripted checkpoint: its trace count, winner and winner margin.
struct Step {
  std::size_t traces;
  std::size_t best;
  double margin;
};

CpaProgressPoint point(const Step& s) {
  CpaProgressPoint p;
  p.traces = s.traces;
  p.max_abs_corr.assign(256, 0.1);
  p.max_abs_corr[s.best] = 0.1 + s.margin;
  p.best_guess = s.best;
  return p;
}

// Every byte observes steps [from, to) the way fold_at would: a frozen
// byte is never folded again. `stable` records byte 0's count.
void drive(EarlyExitTracker& t, const std::vector<Step>& steps,
           std::size_t from, std::size_t to,
           std::vector<std::size_t>* stable = nullptr) {
  for (std::size_t i = from; i < to && !t.state()[0].converged; ++i) {
    for (std::size_t j = 0; j < MultiByteCpa::kBytes; ++j) {
      t.observe(j, point(steps[i]), steps[i].traces);
    }
    if (stable != nullptr) stable->push_back(t.state()[0].stable);
  }
}

FullKeyConfig config(bool on, double margin, std::size_t stable,
                     std::size_t min_traces) {
  FullKeyConfig c;
  c.early_exit = on;
  c.early_exit_margin = margin;
  c.early_exit_stable = stable;
  c.early_exit_min_traces = min_traces;
  return c;
}

struct Case {
  std::string name;
  FullKeyConfig cfg;
  std::vector<Step> steps;
  std::vector<std::size_t> stable;  ///< byte 0's count after each fold
  std::size_t freeze_at;            ///< 0 = never freezes
};

std::vector<Case> cases() {
  const FullKeyConfig def{};  // margin 0.08, stable 2, min 1000 traces
  return {
      {"min-traces gate holds a clear winner",
       def,
       {{200, 7, 0.5}, {500, 7, 0.5}, {1000, 7, 0.5}, {2000, 7, 0.5}},
       {0, 0, 1, 2},
       2000},
      {"margin gate resets the count",
       def,
       {{1000, 7, 0.5}, {2000, 7, 0.05}, {5000, 7, 0.5}, {10000, 7, 0.5}},
       {0, 0, 1, 2},
       10000},
      {"a winner change resets stable",
       def,
       {{1000, 7, 0.5}, {2000, 7, 0.5}, {5000, 9, 0.5}, {10000, 9, 0.5},
        {20000, 9, 0.5}},
       {0, 1, 0, 1, 2},
       20000},
      {"freezes after early_exit_stable qualifying checkpoints",
       config(true, 0.08, 3, 100),
       {{100, 4, 0.2}, {200, 4, 0.2}, {500, 4, 0.2}, {1000, 4, 0.2},
        {2000, 4, 0.2}},
       {0, 1, 2, 3},
       1000},
      {"early exit off never freezes",
       config(false, 0.08, 2, 100),
       {{100, 4, 0.9}, {200, 4, 0.9}, {500, 4, 0.9}},
       {0, 0, 0},
       0},
  };
}

TEST(EarlyExitTrackerTest, GatesOnScriptedProgress) {
  crypto::Block lrk{};
  lrk[0] = 7;
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    Bytes bytes;
    EarlyExitTracker t(c.cfg, 0, lrk, bytes);
    ASSERT_EQ(bytes[0].correct, 7);
    std::vector<std::size_t> stable;
    drive(t, c.steps, 0, c.steps.size(), &stable);
    EXPECT_EQ(stable, c.stable);
    t.finish();
    const FullKeyByteResult& b = bytes[0];
    EXPECT_EQ(b.early_exited, c.freeze_at != 0);
    EXPECT_EQ(t.converged(), c.freeze_at != 0 ? MultiByteCpa::kBytes : 0u);
    const std::size_t last =
        c.freeze_at != 0 ? c.freeze_at : c.steps.back().traces;
    EXPECT_EQ(b.traces, last);
    EXPECT_EQ(b.progress.back().traces, last);
    EXPECT_EQ(b.recovered, b.progress.back().best_guess);
    EXPECT_EQ(b.final_max_abs_corr, b.progress.back().max_abs_corr);
    EXPECT_EQ(b.success, b.recovered == 7);
  }
}

// A run saved after any checkpoint and restored into a fresh tracker
// (state, progress and frozen result, as a checkpoint file holds them)
// freezes at the same point with the same result as the straight run.
TEST(EarlyExitTrackerTest, SaveRestoreKeepsFreezePoints) {
  const crypto::Block lrk{};
  for (const Case& c : cases()) {
    Bytes straight;
    EarlyExitTracker s(c.cfg, 0, lrk, straight);
    drive(s, c.steps, 0, c.steps.size());
    s.finish();
    for (std::size_t k = 1; k < c.steps.size(); ++k) {
      SCOPED_TRACE(c.name + ", saved after step " + std::to_string(k));
      Bytes before;
      EarlyExitTracker a(c.cfg, 0, lrk, before);
      drive(a, c.steps, 0, k);

      Bytes after;
      EarlyExitTracker b(c.cfg, 0, lrk, after);
      b.state() = a.state();
      for (std::size_t j = 0; j < MultiByteCpa::kBytes; ++j) {
        after[j].progress = before[j].progress;
        if (a.state()[j].converged) {
          b.freeze(j, before[j].recovered, before[j].traces,
                   before[j].final_max_abs_corr);
        }
      }
      drive(b, c.steps, k, c.steps.size());
      b.finish();
      EXPECT_EQ(after[0].early_exited, straight[0].early_exited);
      EXPECT_EQ(after[0].traces, straight[0].traces);
      EXPECT_EQ(after[0].recovered, straight[0].recovered);
      EXPECT_EQ(after[0].progress.size(), straight[0].progress.size());
      EXPECT_EQ(after[0].final_max_abs_corr, straight[0].final_max_abs_corr);
    }
  }
}

// fold_at skips a frozen byte: no new progress point, no second freeze,
// while every active byte gains one point.
TEST(EarlyExitTrackerTest, FrozenBytesAreNotRefolded) {
  Bytes bytes;
  EarlyExitTracker t(config(true, 0.08, 1, 0), 0, crypto::Block{}, bytes);
  t.observe(0, point({100, 3, 0.0}), 100);
  ASSERT_TRUE(t.observe(0, point({200, 3, 0.5}), 200).has_value());
  ASSERT_TRUE(t.state()[0].converged);

  MultiByteCpa acc(2);
  const std::vector<double> y{3.0, 5.0};
  std::uint8_t v[MultiByteCpa::kBytes] = {};
  std::uint8_t b[MultiByteCpa::kBytes] = {};
  for (std::uint8_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < MultiByteCpa::kBytes; ++j) {
      v[j] = static_cast<std::uint8_t>(i * 31 + j);
      b[j] = i & 1;
    }
    acc.add_trace(v, b, y);
  }
  for (const EarlyExitTracker::Freeze& f : t.fold_at(acc, 300)) {
    EXPECT_NE(f.byte, 0u);
  }
  EXPECT_EQ(bytes[0].progress.size(), 2u);
  EXPECT_EQ(bytes[0].traces, 200u);
  for (std::size_t j = 1; j < MultiByteCpa::kBytes; ++j) {
    EXPECT_EQ(bytes[j].progress.size(), 1u) << "byte " << j;
  }
}

}  // namespace
}  // namespace slm::sca
