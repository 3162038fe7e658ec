// The direct class fold: for every guess k and class value v, add the
// one class row whose hypothesis h = pattern[v ^ k] ^ b is 1, 256 x 256
// row adds per fold. It is the definition XorClassCpa::fold and
// MultiByteCpa::fold (an exact Walsh-Hadamard transform, sca/cpa.cpp)
// must reproduce byte for byte (cpa_test, multibyte_cpa_test,
// fold_dispatch_test), and the baseline bench_micro's
// BM_CheckpointFold family times them against.
//
// It reads the accumulators through save() and builds its engine
// through CpaEngine::load(), so it needs no access to engine internals.
//
// class_sums_reference is the oracle for the add side: the int64 class
// sums one trace at a time, which both add_block paths (int64 rows and
// int32 class tiles, sca/cpa.cpp) must reproduce byte for byte
// (fold_dispatch_test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/binio.hpp"
#include "sca/cpa.hpp"
#include "sca/fold_kernels.hpp"

namespace slm::reference {

inline constexpr std::size_t kFoldClasses = 512;  // (v << 1) | b

/// One byte's class accumulator, as XorClassCpa::save writes it.
struct ClassState {
  std::size_t samples = 0;
  std::uint64_t n = 0;
  std::vector<double> sum_y, sum_yy;
  std::vector<std::int64_t> class_n;  // [class]
  std::vector<std::int64_t> class_y;  // [class * samples + s]
  friend bool operator==(const ClassState&, const ClassState&) = default;
};

/// Table `byte`'s class state out of an accumulator's save() stream
/// (XorClassCpa has one table; MultiByteCpa lays its 16 out byte-major).
template <typename Accumulator>
ClassState class_state_of(const Accumulator& acc, std::size_t byte) {
  ByteWriter w;
  acc.save(w);
  ByteReader r(w.bytes().data(), w.bytes().size());
  ClassState st;
  st.samples = r.get_u64();
  st.n = r.get_u64();
  st.sum_y = r.get_f64_vector();
  st.sum_yy = r.get_f64_vector();
  const std::vector<double> cn = r.get_f64_vector();
  const std::vector<double> cy = r.get_f64_vector();
  const auto rows = static_cast<std::ptrdiff_t>(kFoldClasses);
  const auto cells = rows * static_cast<std::ptrdiff_t>(st.samples);
  const auto at = static_cast<std::ptrdiff_t>(byte);
  st.class_n.assign(cn.begin() + at * rows, cn.begin() + (at + 1) * rows);
  st.class_y.assign(cy.begin() + at * cells, cy.begin() + (at + 1) * cells);
  return st;
}

/// The class sums of `count` traces in plain int64 arithmetic, one
/// trace at a time: `tables` class tables fed from count x tables
/// trace-major labels (v[t * tables + j], b likewise, b in {0, 1}) and
/// count x samples integer-valued readings. Element j is table j's
/// state, laid out as class_state_of reads it.
inline std::vector<ClassState> class_sums_reference(
    const std::uint8_t* v, const std::uint8_t* b, std::size_t tables,
    const double* y, std::size_t count, std::size_t samples) {
  std::vector<std::int64_t> sum_y(samples, 0), sum_yy(samples, 0);
  std::vector<ClassState> out(tables);
  for (ClassState& st : out) {
    st.samples = samples;
    st.n = count;
    st.class_n.assign(kFoldClasses, 0);
    st.class_y.assign(kFoldClasses * samples, 0);
  }
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t s = 0; s < samples; ++s) {
      const auto r = static_cast<std::int64_t>(y[t * samples + s]);
      sum_y[s] += r;
      sum_yy[s] += r * r;
    }
    for (std::size_t j = 0; j < tables; ++j) {
      const std::size_t cls =
          (std::size_t{v[t * tables + j]} << 1) | b[t * tables + j];
      out[j].class_n[cls] += 1;
      for (std::size_t s = 0; s < samples; ++s) {
        out[j].class_y[cls * samples + s] +=
            static_cast<std::int64_t>(y[t * samples + s]);
      }
    }
  }
  for (ClassState& st : out) {
    st.sum_y.assign(sum_y.begin(), sum_y.end());
    st.sum_yy.assign(sum_yy.begin(), sum_yy.end());
  }
  return out;
}

inline ClassState class_state(const sca::XorClassCpa& c) {
  return class_state_of(c, 0);
}

inline ClassState class_state(const sca::MultiByteCpa& m, std::size_t byte) {
  return class_state_of(m, byte);
}

/// The direct loop: class counts `cn` (512) and class sums `cy`
/// (512 x samples) into sum_h (256) and sum_hy (256 x samples, zeroed by
/// the caller). Row adds go through the dispatched add_i64 kernel.
inline void fold_direct(const std::uint8_t* pattern256,
                        const std::int64_t* cn, const std::int64_t* cy,
                        std::size_t samples, std::int64_t* sum_h,
                        std::int64_t* sum_hy) {
  const sca::FoldKernels& kn = sca::active_kernels();
  for (std::size_t k = 0; k < 256; ++k) {
    std::int64_t sh = 0;
    std::int64_t* row = sum_hy + k * samples;
    for (std::size_t v = 0; v < 256; ++v) {
      // h = pattern[v ^ k] ^ b: only the b that makes h == 1 contributes.
      const std::size_t b = pattern256[v ^ k] ? 0u : 1u;
      const std::size_t cls = (v << 1) | b;
      if (cn[cls] == 0) continue;
      sh += cn[cls];
      kn.add_i64(row, cy + cls * samples, samples);
    }
    sum_h[k] = sh;
  }
}

/// The 256-guess engine the direct loop folds `st` into.
inline sca::CpaEngine fold_reference(const ClassState& st,
                                     const std::uint8_t* pattern256) {
  std::vector<std::int64_t> sum_h(256, 0);
  std::vector<std::int64_t> sum_hy(256 * st.samples, 0);
  fold_direct(pattern256, st.class_n.data(), st.class_y.data(), st.samples,
              sum_h.data(), sum_hy.data());
  ByteWriter w;
  w.put_u64(256);
  w.put_u64(st.samples);
  w.put_u64(st.n);
  w.put_f64_vector(st.sum_y);
  w.put_f64_vector(st.sum_yy);
  w.put_f64_vector(std::vector<double>(sum_h.begin(), sum_h.end()));
  w.put_f64_vector(std::vector<double>(sum_hy.begin(), sum_hy.end()));
  sca::CpaEngine e(256, st.samples);
  ByteReader r(w.bytes().data(), w.bytes().size());
  e.load(r);
  return e;
}

inline sca::CpaEngine fold_reference(const sca::XorClassCpa& c,
                                     const std::uint8_t* pattern256) {
  return fold_reference(class_state(c), pattern256);
}

inline sca::CpaEngine fold_reference(const sca::MultiByteCpa& m,
                                     std::size_t byte,
                                     const std::uint8_t* pattern256) {
  return fold_reference(class_state(m, byte), pattern256);
}

}  // namespace slm::reference
