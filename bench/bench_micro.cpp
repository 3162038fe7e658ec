// Microbenchmarks (google-benchmark) of the kernels the figure benches
// lean on: AES reference + datapath model, netlist evaluation, the
// event-driven timing simulation, PDN stepping and response lookup, the
// overclocked capture, the CPA trace update, and the block-batched
// capture/CPA kernels against their per-trace baselines (ns/sample and
// ns/trace; see items_per_second in the JSON), the checkpoint class
// fold against its direct-loop reference (ns per fold), and the CRC-32
// kernels behind store I/O (bytes_per_second). Unless --benchmark_out is
// given, results are also written to BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "common/aligned.hpp"
#include "common/binio.hpp"
#include "common/dispatch.hpp"
#include "common/rng.hpp"
#include "core/calibration.hpp"
#include "core/parallel.hpp"
#include "core/setup.hpp"
#include "sensors/benign_sensor.hpp"
#include "crypto/aes_datapath.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/generators/alu.hpp"
#include "netlist/generators/c6288.hpp"
#include "pdn/cycle_response.hpp"
#include "pdn/rlc.hpp"
#include "sca/cpa.hpp"
#include "sca/fold_kernels.hpp"
#include "sca/model.hpp"
#include "timing/timed_sim.hpp"
#include "crc32_bytewise.hpp"
#include "fold_reference.hpp"

using namespace slm;

namespace {

crypto::Block key() {
  return crypto::block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
}

void BM_AesEncrypt(benchmark::State& state) {
  crypto::Aes128 aes(key());
  crypto::Block pt{};
  for (auto _ : state) {
    pt = aes.encrypt(pt);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_AesEncrypt);

void BM_AesDatapathEncrypt(benchmark::State& state) {
  crypto::AesDatapathModel model(key(), crypto::DatapathConfig{});
  crypto::Block pt{};
  for (auto _ : state) {
    auto enc = model.encrypt(pt);
    pt = enc.ciphertext;
    benchmark::DoNotOptimize(enc.cycle_current[0]);
  }
}
BENCHMARK(BM_AesDatapathEncrypt);

// The capture engine's victim step: one encrypt_block call over a block
// of traces, currents written cycle-major (items = traces). One row per
// level of the core: Portable runs the T-table rounds, Aesni the
// four-lane AESENC body (the active level on a CPU with AES-NI and AVX2).
void victim_block_bench(benchmark::State& state,
                        crypto::AesDatapathModel::Level level) {
  if (level == crypto::AesDatapathModel::Level::kAesni &&
      !crypto::AesDatapathModel::aesni_supported()) {
    state.SkipWithError("AES-NI victim level not supported by this CPU");
    return;
  }
  const crypto::AesDatapathModel model(key(), crypto::DatapathConfig{});
  const auto lanes = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(5);
  std::vector<crypto::Block> pts(lanes);
  std::vector<crypto::Block> cts(lanes);
  for (auto& pt : pts) {
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  }
  std::vector<double> ic(crypto::AesDatapathModel::kCycles * lanes);
  crypto::AesDatapathModel::RegisterSnapshot regs{};
  std::uint64_t g = 0;
  for (auto _ : state) {
    model.encrypt_block(pts.data(), lanes, g, regs, ic.data(), lanes,
                        cts.data(), level);
    g += lanes;
    benchmark::DoNotOptimize(ic.data());
    benchmark::DoNotOptimize(cts.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_VictimBlockPortable(benchmark::State& state) {
  victim_block_bench(state, crypto::AesDatapathModel::Level::kPortable);
}
BENCHMARK(BM_VictimBlockPortable)->Arg(64);

void BM_VictimBlockAesni(benchmark::State& state) {
  victim_block_bench(state, crypto::AesDatapathModel::Level::kAesni);
}
BENCHMARK(BM_VictimBlockAesni)->Arg(64);

void BM_AluNetlistEval(benchmark::State& state) {
  const auto cal = core::Calibration::paper_defaults();
  const auto nl = netlist::make_alu(cal.alu);
  netlist::Evaluator ev(nl);
  const auto in = netlist::alu_measure_stimulus(cal.alu);
  for (auto _ : state) {
    auto out = ev.eval(in);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_AluNetlistEval);

void BM_TimedSimC6288(benchmark::State& state) {
  const auto cal = core::Calibration::paper_defaults();
  const auto nl = netlist::make_c6288(cal.c6288);
  timing::TimedSimulator sim(nl);
  const auto from = netlist::c6288_reset_stimulus(cal.c6288);
  const auto to = netlist::c6288_measure_stimulus(cal.c6288);
  for (auto _ : state) {
    auto r = sim.simulate_transition(from, to);
    benchmark::DoNotOptimize(r.total_events);
  }
}
BENCHMARK(BM_TimedSimC6288);

void BM_PdnRk4Step(benchmark::State& state) {
  const auto cal = core::Calibration::paper_defaults();
  pdn::RlcPdn pdn(cal.pdn);
  double load = 0.1;
  for (auto _ : state) {
    load = -load;
    benchmark::DoNotOptimize(pdn.step(0.5 + load));
  }
}
BENCHMARK(BM_PdnRk4Step);

void BM_CycleResponseLookup(benchmark::State& state) {
  const auto cal = core::Calibration::paper_defaults();
  std::vector<double> samples, cycles;
  for (int s = 60; s < 70; ++s) samples.push_back(s * (20.0 / 3.0));
  for (int c = 0; c < 44; ++c) cycles.push_back(c * 10.0);
  const auto crm =
      pdn::CycleResponseMatrix::build(cal.pdn, samples, cycles, 10.0);
  std::vector<double> currents(44, 0.1);
  std::vector<double> v;
  for (auto _ : state) {
    crm.voltages(currents, v);
    benchmark::DoNotOptimize(v[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CycleResponseLookup);

// Blocked PDN matvec vs the per-trace voltages() above (items = traces).
// The scalar voltages() chain accumulates one FP add per cycle into a
// single running sum, so it is latency-bound; the lane-parallel form
// pipelines the adds across traces. BM_CycleResponseBlock runs the
// active dispatch level (the 32-lane AVX2 tile where the CPU has AVX2),
// the Sse2 row the 8-lane tile, the Scalar row the per-lane loop.
template <class Level>
void cycle_response_block_bench(benchmark::State& state, Level level,
                                std::size_t lanes) {
  const auto cal = core::Calibration::paper_defaults();
  std::vector<double> samples, cycles;
  for (int s = 60; s < 70; ++s) samples.push_back(s * (20.0 / 3.0));
  for (int c = 0; c < 44; ++c) cycles.push_back(c * 10.0);
  const auto crm =
      pdn::CycleResponseMatrix::build(cal.pdn, samples, cycles, 10.0);
  Xoshiro256 rng(9);
  AlignedVector<double> ic(cycles.size() * lanes);
  for (auto& x : ic) x = 0.05 + 0.1 * rng.uniform();
  std::vector<double> out(lanes * samples.size());
  for (auto _ : state) {
    crm.voltages_block(ic.data(), lanes, lanes, out.data(), level);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}

void BM_CycleResponseBlock(benchmark::State& state) {
  cycle_response_block_bench(state, true,
                             static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_CycleResponseBlock)->Arg(64);

void BM_CycleResponseBlockSse2(benchmark::State& state) {
  cycle_response_block_bench(state, DispatchLevel::kSse2,
                             static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_CycleResponseBlockSse2)->Arg(64);

void BM_CycleResponseBlockScalar(benchmark::State& state) {
  cycle_response_block_bench(state, false, 64);
}
BENCHMARK(BM_CycleResponseBlockScalar);

void BM_BenignSensorSampleWord(benchmark::State& state) {
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  Xoshiro256 rng(1);
  for (auto _ : state) {
    auto word = setup.sensor().sample_toggles(0.97, rng);
    benchmark::DoNotOptimize(word);
  }
}
BENCHMARK(BM_BenignSensorSampleWord);

void BM_BenignSensorSampleBit(benchmark::State& state) {
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        setup.sensor().sample_toggle_bit(110, 0.97, rng));
  }
}
BENCHMARK(BM_BenignSensorSampleBit);

// --- Block-kernel vs per-trace baselines -------------------------------
//
// The three pairs below are the block pipeline's hot kernels (DESIGN.md
// §11): the compiled capture evaluated per trace (toggle_hw_batch) vs
// per block of lanes (toggle_hw_block, SIMD and forced-scalar), and the
// CPA accumulators fed one trace at a time vs one cache-blocked rank-K
// update. items_per_second is samples/sec for the sensor kernels and
// traces/sec for the CPA kernels.

constexpr std::size_t kMicroBits = 32;    // planned endpoints
constexpr std::size_t kMicroSamples = 16; // samples per trace
constexpr std::size_t kMicroBlock = 64;   // traces per block

sensors::BenignSensorBank::CompiledHwPlan micro_hw_plan(
    const core::AttackSetup& setup) {
  std::vector<std::size_t> bits;
  for (std::size_t i = 0; i < kMicroBits; ++i) bits.push_back(i);
  return setup.sensor().compile_hw_plan(bits);
}

void BM_SensorToggleHwBatch(benchmark::State& state) {
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const auto plan = micro_hw_plan(setup);
  Xoshiro256 rng(7);
  std::vector<double> v(kMicroSamples, 0.97);
  std::vector<double> y(kMicroSamples, 0.0);
  for (auto _ : state) {
    setup.sensor().toggle_hw_batch(plan, v.data(), v.size(), rng, y.data());
    benchmark::DoNotOptimize(y[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMicroSamples));
}
BENCHMARK(BM_SensorToggleHwBatch);

void toggle_hw_block_bench(benchmark::State& state, bool simd) {
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const auto plan = micro_hw_plan(setup);
  const std::size_t lanes = kMicroBlock * kMicroSamples;
  Xoshiro256 rng(7);
  std::vector<double> v(lanes, 0.97);
  std::vector<double> z(lanes * plan.draws_per_sample);
  FastNormal::instance().fill(rng, z.data(), z.size());
  std::vector<double> y(lanes, 0.0);
  for (auto _ : state) {
    setup.sensor().toggle_hw_block(plan, v.data(), lanes, z.data(), y.data(),
                                   simd);
    benchmark::DoNotOptimize(y[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}

void BM_SensorToggleHwBlock(benchmark::State& state) {
  toggle_hw_block_bench(state, true);
}
BENCHMARK(BM_SensorToggleHwBlock);

void BM_SensorToggleHwBlockScalar(benchmark::State& state) {
  toggle_hw_block_bench(state, false);
}
BENCHMARK(BM_SensorToggleHwBlockScalar);

void BM_CpaAddTrace(benchmark::State& state) {
  sca::CpaEngine engine(256, 10);
  sca::LastRoundBitModel model(3, 0);
  Xoshiro256 rng(2);
  crypto::Block ct;
  std::vector<std::uint8_t> h;
  // Integer readings: the fold engines accumulate in exact int64 and
  // refuse fractional samples (sca/fold_kernels.hpp).
  std::vector<double> y(10, 0.0);
  for (auto _ : state) {
    if (engine.trace_count() >= sca::kMaxFoldTraces) {
      engine = sca::CpaEngine(256, 10);  // stay inside the overflow budget
    }
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    model.hypotheses(ct, h);
    for (auto& s : y) s = static_cast<double>(rng.next() & 0x3ffu);
    engine.add_trace(h, y);
  }
  benchmark::DoNotOptimize(engine.correlation(0, 0));
}
BENCHMARK(BM_CpaAddTrace);

void BM_CpaAddTraces(benchmark::State& state) {
  constexpr std::size_t kSamples = 10;
  sca::CpaEngine engine(256, kSamples);
  sca::LastRoundBitModel model(3, 0);
  Xoshiro256 rng(2);
  crypto::Block ct;
  std::vector<std::uint8_t> h;
  std::vector<std::uint8_t> hblk(kMicroBlock * 256);
  std::vector<double> yblk(kMicroBlock * kSamples);
  for (std::size_t t = 0; t < kMicroBlock; ++t) {
    for (auto& b : ct) b = static_cast<std::uint8_t>(rng.next());
    model.hypotheses(ct, h);
    std::memcpy(hblk.data() + t * 256, h.data(), 256);
    for (std::size_t s = 0; s < kSamples; ++s) {
      yblk[t * kSamples + s] = static_cast<double>(rng.next() & 0x3ffu);
    }
  }
  for (auto _ : state) {
    if (engine.trace_count() + kMicroBlock > sca::kMaxFoldTraces) {
      engine = sca::CpaEngine(256, kSamples);
    }
    engine.add_traces(hblk.data(), yblk.data(), kMicroBlock);
  }
  benchmark::DoNotOptimize(engine.correlation(0, 0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMicroBlock));
}
BENCHMARK(BM_CpaAddTraces);

void BM_XorClassAddTrace(benchmark::State& state) {
  constexpr std::size_t kSamples = 10;
  sca::XorClassCpa cls(kSamples);
  Xoshiro256 rng(2);
  std::vector<double> y(kSamples, 0.0);
  for (auto _ : state) {
    if (cls.trace_count() >= sca::kMaxFoldTraces) {
      cls = sca::XorClassCpa(kSamples);
    }
    const auto v = static_cast<std::uint8_t>(rng.next());
    const auto b = static_cast<std::uint8_t>(rng.next() & 1u);
    for (auto& s : y) s = static_cast<double>(rng.next() & 0xffu);
    cls.add_trace(v, b, y);
  }
  benchmark::DoNotOptimize(cls.trace_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_XorClassAddTrace);

void BM_XorClassAddBlock(benchmark::State& state) {
  constexpr std::size_t kSamples = 10;
  sca::XorClassCpa cls(kSamples);
  Xoshiro256 rng(2);
  std::vector<std::uint8_t> vblk(kMicroBlock), bblk(kMicroBlock);
  std::vector<double> yblk(kMicroBlock * kSamples);
  for (std::size_t t = 0; t < kMicroBlock; ++t) {
    vblk[t] = static_cast<std::uint8_t>(rng.next());
    bblk[t] = static_cast<std::uint8_t>(rng.next() & 1u);
    for (std::size_t s = 0; s < kSamples; ++s) {
      yblk[t * kSamples + s] = static_cast<double>(rng.next() & 0xffu);
    }
  }
  for (auto _ : state) {
    if (cls.trace_count() + kMicroBlock > sca::kMaxFoldTraces) {
      cls = sca::XorClassCpa(kSamples);
    }
    cls.add_block(vblk.data(), bblk.data(), yblk.data(), kMicroBlock);
  }
  benchmark::DoNotOptimize(cls.trace_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMicroBlock));
}
BENCHMARK(BM_XorClassAddBlock);

// MultiByteCpa::add_block at S = 8 on both sides of its size rule: 64
// traces (a live capture block, int64 scatter) and 4096 (a store replay
// chunk, int32 class tiles). Readings 0-4 like a benign-HW store. Time
// is per call; items are traces.
void BM_ClassAddBlock(benchmark::State& state) {
  constexpr std::size_t kSamples = 8;
  constexpr std::size_t kBytes = sca::MultiByteCpa::kBytes;
  const auto count = static_cast<std::size_t>(state.range(0));
  sca::MultiByteCpa acc(kSamples);
  Xoshiro256 rng(5);
  std::vector<std::uint8_t> v(count * kBytes), b(count * kBytes);
  std::vector<double> y(count * kSamples);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(rng.next());
    b[i] = static_cast<std::uint8_t>(rng.next() & 1u);
  }
  for (auto& s : y) s = static_cast<double>(rng.uniform_int(5));
  for (auto _ : state) {
    if (acc.trace_count() + count > sca::kMaxFoldTraces) {
      acc = sca::MultiByteCpa(kSamples);
    }
    acc.add_block(v.data(), b.data(), y.data(), count);
  }
  benchmark::DoNotOptimize(acc.trace_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ClassAddBlock)->Arg(64)->Arg(4096);

// --- Integer fold engine: dispatch levels vs the retired FP floor ------
//
// The headline perf claim of the int64 conversion (DESIGN.md §11): the
// CPA fold no longer has to replay one strictly-ordered double
// accumulation chain per accumulator, so the hot add loops can run
// vector-wide. BM_ClassFoldDoubleRef reproduces the retired engine's
// per-trace double loops verbatim (FP addition is non-associative, so
// that serial order WAS the spec); the I64 variants drive the same
// XorClassCpa::add_block through each dispatch level via the test hook.
// items_per_second is traces/sec — the ratio Avx2 (or the machine's
// best level) over DoubleRef is the ">= 2x fold throughput" acceptance
// number, and Scalar over DoubleRef isolates how much of it is the
// integer conversion alone.

struct FoldBenchData {
  std::vector<std::uint8_t> v, b;
  std::vector<double> y;
};

FoldBenchData make_fold_data() {
  FoldBenchData d;
  Xoshiro256 rng(2);
  d.v.resize(kMicroBlock);
  d.b.resize(kMicroBlock);
  d.y.resize(kMicroBlock * kMicroSamples);
  for (std::size_t t = 0; t < kMicroBlock; ++t) {
    d.v[t] = static_cast<std::uint8_t>(rng.next());
    d.b[t] = static_cast<std::uint8_t>(rng.next() & 1u);
    for (std::size_t s = 0; s < kMicroSamples; ++s) {
      d.y[t * kMicroSamples + s] = static_cast<double>(rng.next() & 0x3ffu);
    }
  }
  return d;
}

void BM_ClassFoldDoubleRef(benchmark::State& state) {
  const FoldBenchData d = make_fold_data();
  // Verbatim reproduction of the retired XorClassCpa::add_block: double
  // accumulators fed per trace, plus the stable counting sort the FP
  // engine needed so every per-row addition order matched the per-trace
  // scatter (FP addition is non-associative — the order WAS the spec).
  constexpr std::size_t kClasses = 512;
  std::vector<double> sum_y(kMicroSamples, 0.0);
  std::vector<double> sum_yy(kMicroSamples, 0.0);
  std::vector<double> class_n(kClasses, 0.0);
  std::vector<double> class_y(kClasses * kMicroSamples, 0.0);
  std::vector<std::uint32_t> head, order, cursor;
  for (auto _ : state) {
    for (std::size_t t = 0; t < kMicroBlock; ++t) {
      const double* yt = d.y.data() + t * kMicroSamples;
      for (std::size_t s = 0; s < kMicroSamples; ++s) {
        const double ys = yt[s];
        sum_y[s] += ys;
        sum_yy[s] += ys * ys;
      }
    }
    head.assign(kClasses + 1, 0);
    order.resize(kMicroBlock);
    for (std::size_t t = 0; t < kMicroBlock; ++t) {
      const std::size_t cls =
          (static_cast<std::size_t>(d.v[t]) << 1) | d.b[t];
      ++head[cls + 1];
    }
    for (std::size_t c = 0; c < kClasses; ++c) head[c + 1] += head[c];
    cursor.assign(head.begin(), head.end() - 1);
    for (std::size_t t = 0; t < kMicroBlock; ++t) {
      const std::size_t cls =
          (static_cast<std::size_t>(d.v[t]) << 1) | d.b[t];
      order[cursor[cls]++] = static_cast<std::uint32_t>(t);
    }
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      const std::uint32_t lo = head[cls];
      const std::uint32_t hi = head[cls + 1];
      if (lo == hi) continue;
      class_n[cls] += static_cast<double>(hi - lo);
      double* row = &class_y[cls * kMicroSamples];
      for (std::uint32_t i = lo; i < hi; ++i) {
        const double* yt =
            d.y.data() + static_cast<std::size_t>(order[i]) * kMicroSamples;
        for (std::size_t s = 0; s < kMicroSamples; ++s) row[s] += yt[s];
      }
    }
    benchmark::DoNotOptimize(sum_y[0]);
    benchmark::DoNotOptimize(class_y[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMicroBlock));
}
BENCHMARK(BM_ClassFoldDoubleRef);

void class_fold_i64_bench(benchmark::State& state,
                          sca::DispatchLevel level) {
  if (level > sca::detect_dispatch()) {
    state.SkipWithError("dispatch level not supported by this CPU");
    return;
  }
  sca::force_dispatch_for_testing(level);
  const FoldBenchData d = make_fold_data();
  sca::XorClassCpa cls(kMicroSamples);
  for (auto _ : state) {
    if (cls.trace_count() + kMicroBlock > sca::kMaxFoldTraces) {
      cls = sca::XorClassCpa(kMicroSamples);
    }
    cls.add_block(d.v.data(), d.b.data(), d.y.data(), kMicroBlock);
  }
  benchmark::DoNotOptimize(cls.trace_count());
  sca::clear_forced_dispatch_for_testing();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMicroBlock));
}

void BM_ClassFoldI64Scalar(benchmark::State& state) {
  class_fold_i64_bench(state, sca::DispatchLevel::kScalar);
}
BENCHMARK(BM_ClassFoldI64Scalar);

void BM_ClassFoldI64Sse2(benchmark::State& state) {
  class_fold_i64_bench(state, sca::DispatchLevel::kSse2);
}
BENCHMARK(BM_ClassFoldI64Sse2);

void BM_ClassFoldI64Avx2(benchmark::State& state) {
  class_fold_i64_bench(state, sca::DispatchLevel::kAvx2);
}
BENCHMARK(BM_ClassFoldI64Avx2);

// --- Checkpoint class fold ----------------------------------------------
//
// Every checkpoint expands the 512 (v, b) class sums into 256 guesses.
// BM_CheckpointFoldReference times the direct 256 x 256 row-add loop
// (tests/sca/fold_reference.hpp) into freshly zeroed output rows;
// BM_CheckpointFoldWht times XorClassCpa::fold, the Walsh-Hadamard
// transform, which also allocates its CpaEngine. Time is ns per fold.
// Args are the sample counts of the byte-campaign store replay_analyze
// replays (8) and of the fused full-key TDC window (13). 20 000 traces
// fill every class.

sca::XorClassCpa checkpoint_classes(std::size_t samples) {
  constexpr std::size_t kTraces = 20000;
  Xoshiro256 rng(4);
  std::vector<std::uint8_t> v(kTraces), b(kTraces);
  std::vector<double> y(kTraces * samples);
  for (std::size_t t = 0; t < kTraces; ++t) {
    v[t] = static_cast<std::uint8_t>(rng.next());
    b[t] = static_cast<std::uint8_t>(rng.next() & 1u);
  }
  for (auto& s : y) s = static_cast<double>(rng.next() & 0xffu);
  sca::XorClassCpa cls(samples);
  cls.add_block(v.data(), b.data(), y.data(), kTraces);
  return cls;
}

void BM_CheckpointFoldReference(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const reference::ClassState st =
      reference::class_state(checkpoint_classes(samples));
  const sca::LastRoundBitModel model(3, 0);
  for (auto _ : state) {
    std::vector<std::int64_t> sum_h(256, 0);
    std::vector<std::int64_t> sum_hy(256 * samples, 0);
    reference::fold_direct(model.pattern().data(), st.class_n.data(),
                           st.class_y.data(), samples, sum_h.data(),
                           sum_hy.data());
    benchmark::DoNotOptimize(sum_hy.data());
  }
}
BENCHMARK(BM_CheckpointFoldReference)->Arg(8)->Arg(13);

void BM_CheckpointFoldWht(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const sca::XorClassCpa cls = checkpoint_classes(samples);
  const sca::LastRoundBitModel model(3, 0);
  for (auto _ : state) {
    const sca::CpaEngine e = cls.fold(model.pattern().data());
    benchmark::DoNotOptimize(e.trace_count());
  }
}
BENCHMARK(BM_CheckpointFoldWht)->Arg(8)->Arg(13);

// --- CRC-32 kernels ------------------------------------------------------
//
// Store opens CRC every payload byte twice (envelope, then per chunk)
// and framed writes once per span, so the CRC's bytes/sec bounds store
// I/O. Bytewise is the one-table reference loop the kernels replaced;
// crc32_update dispatches to Pclmul where the CPU has it, else Slice16.
// bytes_per_second at 64 B (fold setup dominates), 4 KiB and 1 MiB.

void crc32_bench(benchmark::State& state,
                 std::uint32_t (*kernel)(std::uint32_t, const std::uint8_t*,
                                         std::size_t)) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  std::vector<std::uint8_t> buf(n);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel(crc, buf.data(), n);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_Crc32Bytewise(benchmark::State& state) {
  crc32_bench(state, slm::reference::crc32_bytewise);
}
BENCHMARK(BM_Crc32Bytewise)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Crc32Slice16(benchmark::State& state) {
  crc32_bench(state, detail::crc32_slice16);
}
BENCHMARK(BM_Crc32Slice16)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Crc32Pclmul(benchmark::State& state) {
  if (!detail::crc32_pclmul_supported()) {
    state.SkipWithError("PCLMULQDQ not supported by this CPU");
    return;
  }
  crc32_bench(state, detail::crc32_pclmul);
}
BENCHMARK(BM_Crc32Pclmul)->Arg(64)->Arg(4096)->Arg(1 << 20);

// --- RNG contract v2: per-trace stream derivation ---------------------
//
// Contract v2 (DESIGN.md §12) replaces one sequential xoshiro stream
// with a freshly derived stream per trace. The pairs below price that
// swap: the sequential baseline draws a trace's worth of randomness
// from one stream (the retired v1's generation shape), the trace_stream
// variants pay the splitmix derivation per trace, and the gen/compute
// benchmark times one block's generation plus its sensor kernel on the
// calling thread, as an engine shard runs it. items_per_second is
// traces/sec.

// A trace's draw volume in the blocked benign-HW path: 16 plaintext
// bytes, one env-noise fill, one jitter fill.
constexpr std::size_t kMicroDps = 4;  // jitter draws per sample

inline void draw_one_trace(Xoshiro256& rng, double* zv, double* z) {
  std::uint64_t acc = 0;
  for (int i = 0; i < 16; ++i) acc ^= rng.next();
  benchmark::DoNotOptimize(acc);
  FastNormal::instance().fill(rng, zv, kMicroSamples);
  FastNormal::instance().fill(rng, z, kMicroSamples * kMicroDps);
}

void BM_RngSequentialStream(benchmark::State& state) {
  Xoshiro256 rng(0x51);
  std::vector<double> zv(kMicroSamples), z(kMicroSamples * kMicroDps);
  for (auto _ : state) {
    draw_one_trace(rng, zv.data(), z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngSequentialStream);

void BM_RngTraceStreamDerive(benchmark::State& state) {
  // Pure derivation cost: two splitmix64 mixes + state expansion.
  std::uint64_t g = 0;
  for (auto _ : state) {
    Xoshiro256 rng =
        Xoshiro256::trace_stream(0x51, kTraceDomainCapture, g++);
    benchmark::DoNotOptimize(rng.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngTraceStreamDerive);

void BM_RngTraceStreamPerTrace(benchmark::State& state) {
  // v2's generation shape: derive + the same per-trace draw volume.
  std::vector<double> zv(kMicroSamples), z(kMicroSamples * kMicroDps);
  std::uint64_t g = 0;
  for (auto _ : state) {
    Xoshiro256 rng =
        Xoshiro256::trace_stream(0x51, kTraceDomainCapture, g++);
    draw_one_trace(rng, zv.data(), z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngTraceStreamPerTrace);

// Real time, not CPU time, like the engines' wall-clock figures.
void BM_GenCompute(benchmark::State& state) {
  core::AttackSetup setup(core::BenignCircuit::kAlu,
                          core::Calibration::paper_defaults());
  const auto plan = micro_hw_plan(setup);
  const std::size_t lanes = kMicroBlock * kMicroSamples;
  const std::size_t dps = plan.draws_per_sample;
  std::vector<double> v(lanes, 0.97);
  std::vector<double> y(lanes, 0.0);
  std::vector<double> z(lanes * dps);
  std::uint64_t g = 0;
  auto gen_block = [&](std::vector<double>& slab) {
    for (std::size_t t = 0; t < kMicroBlock; ++t) {
      Xoshiro256 rng =
          Xoshiro256::trace_stream(0x51, kTraceDomainCapture, g + t);
      std::uint64_t acc = 0;
      for (int i = 0; i < 16; ++i) acc ^= rng.next();
      benchmark::DoNotOptimize(acc);
      FastNormal::instance().fill(rng, slab.data() + t * kMicroSamples * dps,
                                  kMicroSamples * dps);
    }
    g += kMicroBlock;
  };
  for (auto _ : state) {
    gen_block(z);
    setup.sensor().toggle_hw_block(plan, v.data(), lanes, z.data(), y.data(),
                                   true);
    benchmark::DoNotOptimize(y[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kMicroBlock));
}

BENCHMARK(BM_GenCompute)->UseRealTime();

// --- Lane-block draws ---------------------------------------------------
//
// The capture block's randomness drawn the way CpaCampaign::capture_block
// draws it, in the attack_alu_hw shape: per trace 16 plaintext bytes,
// 8 env-noise normals and 8 x 5 sensor normals. BM_FastNormalFillLanes
// is one lane-block fill of the 40 sensor normals over 64 lanes
// (items = normals); BM_CaptureDraws is a whole block's draws, stream
// derivation included (items = traces). The plain rows run the active
// dispatch level (AVX2 where the CPU has it), the Scalar rows the per-lane
// reference loop.

constexpr std::size_t kDrawSamples = 8;
constexpr std::size_t kDrawDps = 5;

void fill_lanes_bench(benchmark::State& state, DispatchLevel level) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const std::size_t n = kDrawSamples * kDrawDps;
  std::vector<Xoshiro256> rngs;
  for (std::size_t l = 0; l < lanes; ++l) {
    rngs.push_back(Xoshiro256::trace_stream(0x51, kTraceDomainCapture, l));
  }
  std::vector<double> out(lanes * n);
  for (auto _ : state) {
    FastNormal::instance().fill_lanes(rngs.data(), lanes, out.data(), n, n,
                                      level);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes * n));
}

void BM_FastNormalFillLanes(benchmark::State& state) {
  fill_lanes_bench(state, active_dispatch());
}
BENCHMARK(BM_FastNormalFillLanes)->Arg(64);

void BM_FastNormalFillLanesScalar(benchmark::State& state) {
  fill_lanes_bench(state, DispatchLevel::kScalar);
}
BENCHMARK(BM_FastNormalFillLanesScalar)->Arg(64);

void capture_draws_bench(benchmark::State& state, DispatchLevel level) {
  const std::size_t lanes = static_cast<std::size_t>(state.range(0));
  const std::size_t nz = kDrawSamples * kDrawDps;
  std::vector<Xoshiro256> rngs(lanes);
  std::vector<std::uint8_t> pt(lanes * 16);
  std::vector<double> zv(lanes * kDrawSamples);
  std::vector<double> z(lanes * nz);
  const FastNormal& normal = FastNormal::instance();
  std::uint64_t g = 0;
  for (auto _ : state) {
    for (std::size_t b = 0; b < lanes; ++b) {
      rngs[b] = Xoshiro256::trace_stream(0x51, kTraceDomainCapture, g + b);
    }
    fill_bytes_lanes(rngs.data(), lanes, pt.data(), 16, 16, level);
    normal.fill_lanes(rngs.data(), lanes, zv.data(), kDrawSamples,
                      kDrawSamples, level);
    normal.fill_lanes(rngs.data(), lanes, z.data(), nz, nz, level);
    benchmark::DoNotOptimize(pt.data());
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
    g += lanes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}

void BM_CaptureDraws(benchmark::State& state) {
  capture_draws_bench(state, active_dispatch());
}
BENCHMARK(BM_CaptureDraws)->Arg(64);

void BM_CaptureDrawsScalar(benchmark::State& state) {
  capture_draws_bench(state, DispatchLevel::kScalar);
}
BENCHMARK(BM_CaptureDrawsScalar)->Arg(64);

}  // namespace

// BENCHMARK_MAIN(), plus a default --benchmark_out=BENCH_micro.json so
// the per-kernel numbers land next to the figure benches' BENCH_*.json
// records without extra flags (an explicit --benchmark_out still wins).
int main(int argc, char** argv) {
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  static char out_flag[] = "--benchmark_out=BENCH_micro.json";
  static char fmt_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(fmt_flag);
  }
  int args_n = static_cast<int>(args.size());
  benchmark::Initialize(&args_n, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
