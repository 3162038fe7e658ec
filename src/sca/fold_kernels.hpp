// Runtime-dispatched integer fold kernels for the CPA / TVLA engines.
//
// The analysis layer accumulates in int64_t (sca/cpa.hpp): sensor
// readings are integer-valued by contract, so the running sums are
// exact integers and addition is genuinely associative — any vector
// width, block size or thread partition lands on the same accumulator
// bits. That frees the hot add loops from the old "replay the exact
// scalar FP expression sequence" constraint: the kernels here are
// selected once per process (AVX2 / SSE2 / scalar) and every level is
// bit-identical by construction, with the scalar level kept as the
// equivalence oracle (tests/sca/fold_dispatch_test.cpp pins it).
//
// The level is the process-wide one of common/dispatch.hpp (SLM_SIMD:
// scalar, sse2, avx2, unset = auto); the PDN block matvec follows it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/dispatch.hpp"

namespace slm::sca {

// The dispatch level and its test hooks live in common/dispatch.hpp;
// these keep the sca:: spellings the fold callers use.
using slm::active_dispatch;
using slm::clear_forced_dispatch_for_testing;
using slm::detect_dispatch;
using slm::dispatch_level_name;
using slm::DispatchLevel;
using slm::force_dispatch_for_testing;

// --- Overflow budget ----------------------------------------------------
//
// sum_yy grows fastest: after n traces of readings bounded by
// kMaxAbsReading it can reach n * kMaxAbsReading^2. Capping the trace
// budget at kMaxFoldTraces keeps that worst case at 2^62 < 2^63, so the
// int64 accumulators can never overflow (overflow would be UB, not a
// wrong number). Campaigns beyond the budget are refused up front, and
// the engines enforce the same bound incrementally. The class fold's
// Walsh-Hadamard transform relies on the same budget: it needs
// kMaxFoldTraces * kMaxAbsReading <= 2^42 (static_assert in cpa.cpp).
inline constexpr std::int64_t kMaxAbsReading = std::int64_t{1} << 20;
inline constexpr std::size_t kMaxFoldTraces =
    static_cast<std::size_t>((std::uint64_t{1} << 62) /
                             static_cast<std::uint64_t>(kMaxAbsReading *
                                                        kMaxAbsReading));

// --- Class tiles ------------------------------------------------------
//
// Chunk-sized class blocks (XorClassCpa / MultiByteCpa add_block calls
// of at least kClassRows traces) accumulate in a kClassRows x n_pad
// int32 tile instead of the int64 class table, and the tile is widened
// into the table once per kClassTileSubBlock traces. A tile cell takes
// at most one reading per trace, so inside a sub-block
// |cell| <= kClassTileSubBlock * kMaxAbsReading < 2^31: the int32 sums
// are exact by construction, whatever the data (DESIGN.md §13).
inline constexpr std::size_t kClassRows = 512;  // (v << 1) | b
// The largest sub-block whose worst case fits: 2047 * 2^20 = 2^31 - 2^20.
inline constexpr std::size_t kClassTileSubBlock = 2047;
/// Staged int32 rows are padded to a multiple of this many lanes (one
/// AVX2 vector), so the tile kernels never run a scalar tail.
inline constexpr std::size_t kClassTileLanes = 8;
static_assert(static_cast<std::int64_t>(kClassTileSubBlock) * kMaxAbsReading <
                  (std::int64_t{1} << 31),
              "a class-tile sub-block could overflow its int32 cells");

/// Throws slm::Error when `traces` exceeds the integer-accumulator
/// overflow budget. `who` names the refusing subsystem in the message.
void require_fold_budget(std::size_t traces, const char* who);

// --- Kernels ------------------------------------------------------------

/// One dispatch level's kernel table. All levels compute identical
/// accumulator bits (exact integer addition is associative); they differ
/// only in lane width.
struct FoldKernels {
  DispatchLevel level;
  /// dst[i] += src[i] for i in [0, n).
  void (*add_i64)(std::int64_t* dst, const std::int64_t* src, std::size_t n);
  /// dst_y[i] += y[i] and dst_yy[i] += yy[i] for i in [0, n) — the
  /// paired sum / sum-of-squares row update.
  void (*add2_i64)(std::int64_t* dst_y, std::int64_t* dst_yy,
                   const std::int64_t* y, const std::int64_t* yy,
                   std::size_t n);
  /// Stage a readings block for the integer fold (same contract as
  /// stage_readings_i64, which is the scalar reference). The AVX2 level
  /// converts and validates 4 lanes at a time; every level produces the
  /// same bytes or throws the same error.
  void (*stage_i64)(const double* y, std::size_t n, std::int64_t* yi,
                    std::int64_t* yyi);
  /// Column sums over a trace-major block: for s in [0, n),
  /// dst_y[s] += sum_t y[t*n + s] and dst_yy[s] += sum_t yy[t*n + s]
  /// for t in [0, count). One call replaces `count` add2_i64 calls and
  /// keeps the running sums in registers across the whole block.
  void (*sum_cols2_i64)(std::int64_t* dst_y, std::int64_t* dst_yy,
                        const std::int64_t* y, const std::int64_t* yy,
                        std::size_t count, std::size_t n);
  /// Row scatter over a trace-major block: for r in [0, rows),
  /// dst[cls[r]*n + i] += src[r*n + i] for i in [0, n). The class-row
  /// update of XorClassCpa / MultiByteCpa for blocks of fewer than
  /// kClassRows traces (the live engines' capture blocks).
  void (*scatter_rows_i64)(std::int64_t* dst, const std::int64_t* src,
                           const std::uint32_t* cls, std::size_t rows,
                           std::size_t n);
  /// The class-row update for blocks of at least kClassRows traces,
  /// through an int32 tile. Row r of the block has class value
  /// v[r*stride] and class bit b[r*stride] (0 or 1, checked by the
  /// caller), so class c = (v << 1) | b; for r in [0, rows) it does
  /// class_n[c] += 1 and class_y[c*n + i] += src[r*n_pad + i] for i in
  /// [0, n). `src` holds int32 rows of n_pad lanes (n_pad a multiple of
  /// kClassTileLanes, pad lanes zero). `tile` is kClassRows x n_pad
  /// int32 scratch, zero on entry and on return: rows add into it, and
  /// it is widened into class_y after every kClassTileSubBlock rows and
  /// after the last.
  void (*class_tile_i32)(std::int64_t* class_n, std::int64_t* class_y,
                         const std::uint8_t* v, const std::uint8_t* b,
                         std::size_t stride, const std::int32_t* src,
                         std::size_t rows, std::size_t n, std::size_t n_pad,
                         std::int32_t* tile);
};

/// Kernel table for an explicit level (the property test drives every
/// level through this regardless of the active one). Requesting a level
/// the CPU cannot run throws.
const FoldKernels& kernels(DispatchLevel level);

/// Kernel table for active_dispatch().
const FoldKernels& active_kernels();

/// Stage one trace-major block of readings for the integer fold:
/// yi[i] = (int64) y[i] and yyi[i] = yi[i]^2. Enforces the engine
/// contract — every reading must be integer-valued with magnitude at
/// most kMaxAbsReading — and throws on the first violation, before any
/// accumulator is touched.
void stage_readings_i64(const double* y, std::size_t n, std::int64_t* yi,
                        std::int64_t* yyi);

// --- Serialization bridge ----------------------------------------------
//
// Checkpoints / snapshots keep their on-disk double fields (no format
// bump): every in-budget integer sum is far below 2^53, so the
// int64 <-> double casts are exact. Both directions verify the exact
// round trip and throw rather than silently losing a bit.

/// int64 sums -> the exact doubles the legacy engines would have held.
std::vector<double> sums_to_f64_exact(std::span<const std::int64_t> v,
                                      const char* who);

/// Stored doubles -> int64 sums; refuses non-integral values.
std::vector<std::int64_t> sums_from_f64_exact(const std::vector<double>& v,
                                              const char* who);

}  // namespace slm::sca
