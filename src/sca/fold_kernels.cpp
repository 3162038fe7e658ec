#include "sca/fold_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define SLM_FOLD_X86 1
#include <immintrin.h>
#else
#define SLM_FOLD_X86 0
#endif

namespace slm::sca {
namespace {

// --- Scalar reference kernels ------------------------------------------
//
// The oracle every wider level is checked against. Vectorization is
// disabled so "scalar" in benchmarks and in SLM_SIMD=0 runs means one
// lane, not whatever the autovectorizer felt like.
#if defined(__GNUC__) && !defined(__clang__)
#define SLM_NO_VECTORIZE __attribute__((optimize("no-tree-vectorize")))
#else
#define SLM_NO_VECTORIZE
#endif

SLM_NO_VECTORIZE
void add_i64_scalar(std::int64_t* dst, const std::int64_t* src,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

SLM_NO_VECTORIZE
void add2_i64_scalar(std::int64_t* dst_y, std::int64_t* dst_yy,
                     const std::int64_t* y, const std::int64_t* yy,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst_y[i] += y[i];
    dst_yy[i] += yy[i];
  }
}

SLM_NO_VECTORIZE
void sum_cols2_i64_scalar(std::int64_t* dst_y, std::int64_t* dst_yy,
                          const std::int64_t* y, const std::int64_t* yy,
                          std::size_t count, std::size_t n) {
  for (std::size_t s = 0; s < n; ++s) {
    std::int64_t ay = 0;
    std::int64_t ayy = 0;
    for (std::size_t t = 0; t < count; ++t) {
      ay += y[t * n + s];
      ayy += yy[t * n + s];
    }
    dst_y[s] += ay;
    dst_yy[s] += ayy;
  }
}

SLM_NO_VECTORIZE
void scatter_rows_i64_scalar(std::int64_t* dst, const std::int64_t* src,
                             const std::uint32_t* cls, std::size_t rows,
                             std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::int64_t* row = dst + static_cast<std::size_t>(cls[r]) * n;
    const std::int64_t* s = src + r * n;
    for (std::size_t i = 0; i < n; ++i) row[i] += s[i];
  }
}

// Class tiles: every level scatters a sub-block of rows into the int32
// tile, then widens the tile into the int64 class table
// (widen_tile_<level>) and clears it, once per kClassTileSubBlock rows.
// The clear is one memset of the whole tile: a per-row clear loop
// compiles to one memset call per row.
void clear_tile(std::int32_t* tile, std::size_t n_pad) {
  std::memset(tile, 0, kClassRows * n_pad * sizeof(std::int32_t));
}

SLM_NO_VECTORIZE
void widen_tile_scalar(std::int64_t* dst, const std::int32_t* tile,
                       std::size_t n, std::size_t n_pad) {
  for (std::size_t c = 0; c < kClassRows; ++c) {
    const std::int32_t* t = tile + c * n_pad;
    std::int64_t* d = dst + c * n;
    for (std::size_t i = 0; i < n; ++i) d[i] += t[i];
  }
}

SLM_NO_VECTORIZE
void class_tile_i32_scalar(std::int64_t* class_n, std::int64_t* class_y,
                           const std::uint8_t* v, const std::uint8_t* b,
                           std::size_t stride, const std::int32_t* src,
                           std::size_t rows, std::size_t n, std::size_t n_pad,
                           std::int32_t* tile) {
  for (std::size_t lo = 0; lo < rows; lo += kClassTileSubBlock) {
    const std::size_t hi = std::min(rows, lo + kClassTileSubBlock);
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t c = (std::size_t{v[r * stride]} << 1) | b[r * stride];
      class_n[c] += 1;
      std::int32_t* row = tile + c * n_pad;
      const std::int32_t* s = src + r * n_pad;
      for (std::size_t i = 0; i < n; ++i) row[i] += s[i];
    }
    widen_tile_scalar(class_y, tile, n, n_pad);
    clear_tile(tile, n_pad);
  }
}

#if SLM_FOLD_X86

// --- SSE2 kernels (baseline on x86-64, 2 lanes) -------------------------

void add_i64_sse2(std::int64_t* dst, const std::int64_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_add_epi64(d, s));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void add2_i64_sse2(std::int64_t* dst_y, std::int64_t* dst_yy,
                   const std::int64_t* y, const std::int64_t* yy,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i dy =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst_y + i));
    const __m128i sy =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst_y + i),
                     _mm_add_epi64(dy, sy));
    const __m128i dq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst_yy + i));
    const __m128i sq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(yy + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst_yy + i),
                     _mm_add_epi64(dq, sq));
  }
  for (; i < n; ++i) {
    dst_y[i] += y[i];
    dst_yy[i] += yy[i];
  }
}

// --- AVX2 kernels (4 lanes) ---------------------------------------------
//
// Pure vpaddq: the squares are staged during the double->int64
// conversion pass precisely because AVX2 has no 64x64 multiply
// (vpmullq is AVX-512DQ), so the hot loops never multiply.

__attribute__((target("avx2"))) void add_i64_avx2(std::int64_t* dst,
                                                  const std::int64_t* src,
                                                  std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(d, s));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void add2_i64_avx2(std::int64_t* dst_y,
                                                   std::int64_t* dst_yy,
                                                   const std::int64_t* y,
                                                   const std::int64_t* yy,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i dy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst_y + i));
    const __m256i sy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst_y + i),
                        _mm256_add_epi64(dy, sy));
    const __m256i dq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst_yy + i));
    const __m256i sq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(yy + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst_yy + i),
                        _mm256_add_epi64(dq, sq));
  }
  for (; i < n; ++i) {
    dst_y[i] += y[i];
    dst_yy[i] += yy[i];
  }
}

void sum_cols2_i64_sse2(std::int64_t* dst_y, std::int64_t* dst_yy,
                        const std::int64_t* y, const std::int64_t* yy,
                        std::size_t count, std::size_t n) {
  std::size_t s = 0;
  for (; s + 2 <= n; s += 2) {
    __m128i ay = _mm_setzero_si128();
    __m128i ayy = _mm_setzero_si128();
    for (std::size_t t = 0; t < count; ++t) {
      ay = _mm_add_epi64(
          ay, _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(y + t * n + s)));
      ayy = _mm_add_epi64(
          ayy, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(yy + t * n + s)));
    }
    const __m128i dy =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst_y + s));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst_y + s),
                     _mm_add_epi64(dy, ay));
    const __m128i dq =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst_yy + s));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst_yy + s),
                     _mm_add_epi64(dq, ayy));
  }
  for (; s < n; ++s) {
    std::int64_t ay = 0;
    std::int64_t ayy = 0;
    for (std::size_t t = 0; t < count; ++t) {
      ay += y[t * n + s];
      ayy += yy[t * n + s];
    }
    dst_y[s] += ay;
    dst_yy[s] += ayy;
  }
}

void scatter_rows_i64_sse2(std::int64_t* dst, const std::int64_t* src,
                           const std::uint32_t* cls, std::size_t rows,
                           std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    add_i64_sse2(dst + static_cast<std::size_t>(cls[r]) * n, src + r * n, n);
  }
}

// SSE2 has no 32 -> 64 sign extension (pmovsxdq is SSE4.1): the high
// halves come from an arithmetic shift, interleaved with the low ones.
void widen_tile_sse2(std::int64_t* dst, const std::int32_t* tile,
                     std::size_t n, std::size_t n_pad) {
  for (std::size_t c = 0; c < kClassRows; ++c) {
    const std::int32_t* t = tile + c * n_pad;
    std::int64_t* d = dst + c * n;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m128i v =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i));
      const __m128i sign = _mm_srai_epi32(v, 31);
      const __m128i d0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i));
      const __m128i d1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(d + i + 2));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i),
                       _mm_add_epi64(d0, _mm_unpacklo_epi32(v, sign)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(d + i + 2),
                       _mm_add_epi64(d1, _mm_unpackhi_epi32(v, sign)));
    }
    for (; i < n; ++i) d[i] += t[i];
  }
}

void class_tile_i32_sse2(std::int64_t* class_n, std::int64_t* class_y,
                         const std::uint8_t* v, const std::uint8_t* b,
                         std::size_t stride, const std::int32_t* src,
                         std::size_t rows, std::size_t n, std::size_t n_pad,
                         std::int32_t* tile) {
  for (std::size_t lo = 0; lo < rows; lo += kClassTileSubBlock) {
    const std::size_t hi = std::min(rows, lo + kClassTileSubBlock);
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t c = (std::size_t{v[r * stride]} << 1) | b[r * stride];
      class_n[c] += 1;
      std::int32_t* row = tile + c * n_pad;
      const std::int32_t* s = src + r * n_pad;
      for (std::size_t i = 0; i < n_pad; i += 4) {
        const __m128i d =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i));
        const __m128i x =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(row + i),
                         _mm_add_epi32(d, x));
      }
    }
    widen_tile_sse2(class_y, tile, n, n_pad);
    clear_tile(tile, n_pad);
  }
}

__attribute__((target("avx2"))) void sum_cols2_i64_avx2(
    std::int64_t* dst_y, std::int64_t* dst_yy, const std::int64_t* y,
    const std::int64_t* yy, std::size_t count, std::size_t n) {
  std::size_t s = 0;
  for (; s + 4 <= n; s += 4) {
    // Two running accumulators per stream break the add latency chain;
    // exact integer addition makes the pairing bit-transparent.
    __m256i ay0 = _mm256_setzero_si256();
    __m256i ay1 = _mm256_setzero_si256();
    __m256i ayy0 = _mm256_setzero_si256();
    __m256i ayy1 = _mm256_setzero_si256();
    std::size_t t = 0;
    for (; t + 2 <= count; t += 2) {
      ay0 = _mm256_add_epi64(
          ay0, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(y + t * n + s)));
      ay1 = _mm256_add_epi64(
          ay1, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(y + (t + 1) * n + s)));
      ayy0 = _mm256_add_epi64(
          ayy0, _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(yy + t * n + s)));
      ayy1 = _mm256_add_epi64(
          ayy1,
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(yy + (t + 1) * n + s)));
    }
    if (t < count) {
      ay0 = _mm256_add_epi64(
          ay0, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(y + t * n + s)));
      ayy0 = _mm256_add_epi64(
          ayy0, _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(yy + t * n + s)));
    }
    const __m256i ay = _mm256_add_epi64(ay0, ay1);
    const __m256i ayy = _mm256_add_epi64(ayy0, ayy1);
    const __m256i dy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst_y + s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst_y + s),
                        _mm256_add_epi64(dy, ay));
    const __m256i dq =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst_yy + s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst_yy + s),
                        _mm256_add_epi64(dq, ayy));
  }
  for (; s < n; ++s) {
    std::int64_t ay = 0;
    std::int64_t ayy = 0;
    for (std::size_t t = 0; t < count; ++t) {
      ay += y[t * n + s];
      ayy += yy[t * n + s];
    }
    dst_y[s] += ay;
    dst_yy[s] += ayy;
  }
}

__attribute__((target("avx2"))) inline void scatter_one_row_avx2(
    std::int64_t* row, const std::int64_t* sr, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sr + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + i),
                        _mm256_add_epi64(d, v));
  }
  for (; i < n; ++i) row[i] += sr[i];
}

__attribute__((target("avx2"))) void scatter_rows_i64_avx2(
    std::int64_t* dst, const std::int64_t* src, const std::uint32_t* cls,
    std::size_t rows, std::size_t n) {
  // Two rows per step when their destinations differ (the common case —
  // class collisions inside one block are rare), interleaving two
  // independent read-add-store streams. Colliding pairs run
  // sequentially; exact integer addition keeps every path bit-equal.
  std::size_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    std::int64_t* row0 = dst + static_cast<std::size_t>(cls[r]) * n;
    std::int64_t* row1 = dst + static_cast<std::size_t>(cls[r + 1]) * n;
    const std::int64_t* s0 = src + r * n;
    const std::int64_t* s1 = s0 + n;
    if (cls[r] == cls[r + 1]) {
      scatter_one_row_avx2(row0, s0, n);
      scatter_one_row_avx2(row1, s1, n);
      continue;
    }
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256i d0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row0 + i));
      const __m256i v0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s0 + i));
      const __m256i d1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row1 + i));
      const __m256i v1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s1 + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row0 + i),
                          _mm256_add_epi64(d0, v0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row1 + i),
                          _mm256_add_epi64(d1, v1));
    }
    for (; i < n; ++i) {
      row0[i] += s0[i];
      row1[i] += s1[i];
    }
  }
  if (r < rows) {
    scatter_one_row_avx2(dst + static_cast<std::size_t>(cls[r]) * n,
                         src + r * n, n);
  }
}

// One sub-block's widen for the AVX2 tile kernel: each 4-lane int32
// slice of a tile row sign-extends into one int64 vector.
__attribute__((target("avx2"))) void widen_tile_avx2(
    std::int64_t* dst, const std::int32_t* tile, std::size_t n,
    std::size_t n_pad) {
  for (std::size_t c = 0; c < kClassRows; ++c) {
    const std::int32_t* t = tile + c * n_pad;
    std::int64_t* d = dst + c * n;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256i v = _mm256_cvtepi32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i)));
      const __m256i dv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(d + i),
                          _mm256_add_epi64(dv, v));
    }
    for (; i < n; ++i) d[i] += t[i];
  }
}

__attribute__((target("avx2"))) void class_tile_i32_avx2(
    std::int64_t* class_n, std::int64_t* class_y, const std::uint8_t* v,
    const std::uint8_t* b, std::size_t stride, const std::int32_t* src,
    std::size_t rows, std::size_t n, std::size_t n_pad, std::int32_t* tile) {
  for (std::size_t lo = 0; lo < rows; lo += kClassTileSubBlock) {
    const std::size_t hi = std::min(rows, lo + kClassTileSubBlock);
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t c = (std::size_t{v[r * stride]} << 1) | b[r * stride];
      class_n[c] += 1;
      std::int32_t* row = tile + c * n_pad;
      const std::int32_t* s = src + r * n_pad;
      for (std::size_t i = 0; i < n_pad; i += 8) {
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
        const __m256i x =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + i),
                            _mm256_add_epi32(d, x));
      }
    }
    widen_tile_avx2(class_y, tile, n, n_pad);
    clear_tile(tile, n_pad);
  }
}

// AVX2 staging: 4 doubles -> 4 int64 + squares per step. The readings
// fit int32 by contract (|y| <= 2^20), so the lane pipeline is
// cvttpd -> int32, back-convert + compare to validate exactness, widen
// to int64, and square via the 32x32->64 low-lane multiply (AVX2 has no
// 64x64 product). Any violating chunk falls back to the scalar stager,
// which throws the precise per-element contract error.
__attribute__((target("avx2"))) void stage_i64_avx2(const double* y,
                                                    std::size_t n,
                                                    std::int64_t* yi,
                                                    std::int64_t* yyi) {
  const __m256d limit = _mm256_set1_pd(static_cast<double>(kMaxAbsReading));
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  // Validation is batched: each chunk ANDs its exact/in-range masks into
  // `okv`, checked ONCE after the sweep — no per-chunk branch, so the
  // loop runs at conversion throughput. On any violation the scalar
  // stager reruns the whole range to throw the precise per-element
  // error; the staging buffers are scratch, nothing downstream has been
  // touched yet.
  __m256d okv0 = _mm256_cmp_pd(limit, limit, _CMP_EQ_OQ);  // all-true
  __m256d okv1 = okv0;
  std::size_t i = 0;
  // Two chunks per iteration with independent ok-chains: the AND
  // accumulation is the only loop-carried dependency, so splitting it
  // keeps the conversions running at throughput.
  for (; i + 8 <= n; i += 8) {
    const __m256d va = _mm256_loadu_pd(y + i);
    const __m256d vb = _mm256_loadu_pd(y + i + 4);
    const __m128i a32 = _mm256_cvttpd_epi32(va);
    const __m128i b32 = _mm256_cvttpd_epi32(vb);
    okv0 = _mm256_and_pd(
        okv0, _mm256_cmp_pd(va, _mm256_cvtepi32_pd(a32), _CMP_EQ_OQ));
    okv1 = _mm256_and_pd(
        okv1, _mm256_cmp_pd(vb, _mm256_cvtepi32_pd(b32), _CMP_EQ_OQ));
    okv0 = _mm256_and_pd(
        okv0, _mm256_cmp_pd(_mm256_andnot_pd(sign_mask, va), limit,
                            _CMP_LE_OQ));
    okv1 = _mm256_and_pd(
        okv1, _mm256_cmp_pd(_mm256_andnot_pd(sign_mask, vb), limit,
                            _CMP_LE_OQ));
    const __m256i a64 = _mm256_cvtepi32_epi64(a32);
    const __m256i b64 = _mm256_cvtepi32_epi64(b32);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(yi + i), a64);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(yi + i + 4), b64);
    // mul_epi32 multiplies the (signed) low dword of each 64-bit lane:
    // exactly v*v for |v| <= 2^20.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(yyi + i),
                        _mm256_mul_epi32(a64, a64));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(yyi + i + 4),
                        _mm256_mul_epi32(b64, b64));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(y + i);
    const __m128i v32 = _mm256_cvttpd_epi32(v);
    okv0 = _mm256_and_pd(
        okv0, _mm256_cmp_pd(v, _mm256_cvtepi32_pd(v32), _CMP_EQ_OQ));
    okv0 = _mm256_and_pd(
        okv0,
        _mm256_cmp_pd(_mm256_andnot_pd(sign_mask, v), limit, _CMP_LE_OQ));
    const __m256i v64 = _mm256_cvtepi32_epi64(v32);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(yi + i), v64);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(yyi + i),
                        _mm256_mul_epi32(v64, v64));
  }
  if (_mm256_movemask_pd(_mm256_and_pd(okv0, okv1)) != 0xf) {
    stage_readings_i64(y, i, yi, yyi);  // throws, precisely
  }
  if (i < n) stage_readings_i64(y + i, n - i, yi + i, yyi + i);
}

#endif  // SLM_FOLD_X86

constexpr FoldKernels kScalarKernels{
    DispatchLevel::kScalar,  add_i64_scalar,          add2_i64_scalar,
    stage_readings_i64,      sum_cols2_i64_scalar,    scatter_rows_i64_scalar,
    class_tile_i32_scalar};
#if SLM_FOLD_X86
constexpr FoldKernels kSse2Kernels{
    DispatchLevel::kSse2, add_i64_sse2,       add2_i64_sse2,
    stage_readings_i64,   sum_cols2_i64_sse2, scatter_rows_i64_sse2,
    class_tile_i32_sse2};
constexpr FoldKernels kAvx2Kernels{
    DispatchLevel::kAvx2, add_i64_avx2,       add2_i64_avx2,
    stage_i64_avx2,       sum_cols2_i64_avx2, scatter_rows_i64_avx2,
    class_tile_i32_avx2};
#endif

}  // namespace

void require_fold_budget(std::size_t traces, const char* who) {
  SLM_REQUIRE(traces <= kMaxFoldTraces,
              std::string(who) + ": " + std::to_string(traces) +
                  " traces exceed the integer-accumulator overflow budget (" +
                  std::to_string(kMaxFoldTraces) +
                  " traces keeps worst-case sum_yy below 2^62)");
}

const FoldKernels& kernels(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return kScalarKernels;
#if SLM_FOLD_X86
    case DispatchLevel::kSse2:
      return kSse2Kernels;
    case DispatchLevel::kAvx2:
      SLM_REQUIRE(detect_dispatch() >= DispatchLevel::kAvx2,
                  "AVX2 kernels requested but this CPU has no AVX2");
      return kAvx2Kernels;
#else
    default:
      SLM_REQUIRE(level == DispatchLevel::kScalar,
                  "only scalar fold kernels exist on this architecture");
      return kScalarKernels;
#endif
  }
  return kScalarKernels;
}

const FoldKernels& active_kernels() { return kernels(active_dispatch()); }

void stage_readings_i64(const double* y, std::size_t n, std::int64_t* yi,
                        std::int64_t* yyi) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = y[i];
    SLM_REQUIRE(std::abs(v) <= static_cast<double>(kMaxAbsReading),
                "sensor reading " + std::to_string(v) +
                    " exceeds the integer fold range (|y| <= 2^20)");
    const std::int64_t iv = static_cast<std::int64_t>(v);
    SLM_REQUIRE(static_cast<double>(iv) == v,
                "sensor reading " + std::to_string(v) +
                    " is not integer-valued; the fold engine accumulates "
                    "exact integers");
    yi[i] = iv;
    yyi[i] = iv * iv;
  }
}

std::vector<double> sums_to_f64_exact(std::span<const std::int64_t> v,
                                      const char* who) {
  std::vector<double> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double d = static_cast<double>(v[i]);
    SLM_REQUIRE(static_cast<std::int64_t>(d) == v[i],
                std::string(who) +
                    ": integer sum does not round-trip through the on-disk "
                    "double field (exceeds 2^53)");
    out[i] = d;
  }
  return out;
}

std::vector<std::int64_t> sums_from_f64_exact(const std::vector<double>& v,
                                              const char* who) {
  std::vector<std::int64_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double d = v[i];
    const std::int64_t iv = static_cast<std::int64_t>(d);
    SLM_REQUIRE(static_cast<double>(iv) == d,
                std::string(who) +
                    ": stored accumulator field is not an exact integer");
    out[i] = iv;
  }
  return out;
}

}  // namespace slm::sca
