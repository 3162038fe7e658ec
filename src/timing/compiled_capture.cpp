#include "timing/compiled_capture.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace slm::timing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Endpoints with at most this many toggles use the branchless linear
/// count; beyond it a bucket-hint grid is compiled (see grid_ members).
constexpr std::uint32_t kLinearCut = 16;

/// Buckets per gridded endpoint. The hot queries cluster around the
/// operating point, so ~2 buckets per toggle keeps the exact counting
/// window at a couple of entries.
constexpr std::uint32_t kGridBuckets = 128;

/// Minimum toggle-time span (ns) for gridding: keeps the bucket width
/// orders of magnitude above double rounding error, which the one-bucket
/// safety margin of the window query relies on.
constexpr double kMinGridSpanNs = 1e-3;

/// Branchless count of entries <= t (vectorizes; used for short runs).
inline std::size_t count_leq(const double* a, std::uint32_t n, double t) {
  std::size_t c = 0;
  for (std::uint32_t j = 0; j < n; ++j) c += a[j] <= t ? 1u : 0u;
  return c;
}

}  // namespace

CompiledCapture::CompiledCapture(const OverclockedCapture& ref)
    : cfg_(ref.config()),
      t_base_(ref.config().clock_period_ns - ref.config().setup_ns),
      skew_(ref.endpoint_skews()) {
  const auto& waveforms = ref.waveforms();
  const std::size_t e_count = waveforms.size();
  SLM_REQUIRE(e_count == skew_.size(), "CompiledCapture: skew size mismatch");

  offsets_.resize(e_count + 1);
  initial_.resize(e_count);
  std::size_t total = 0;
  for (std::size_t i = 0; i < e_count; ++i) {
    offsets_[i] = static_cast<std::uint32_t>(total);
    initial_[i] = waveforms[i].initial_value() ? 1 : 0;
    total += waveforms[i].toggle_count();
  }
  offsets_[e_count] = static_cast<std::uint32_t>(total);
  SLM_REQUIRE(total <= 0xffffffffu, "CompiledCapture: too many toggles");

  times_.reserve(total);
  for (const auto& wf : waveforms) {
    times_.insert(times_.end(), wf.toggles().begin(), wf.toggles().end());
  }

  // Bucket grids for the toggle-heavy endpoints: kGridBuckets + 1
  // lower-bound positions per endpoint (entry b = first toggle index at
  // or past bucket boundary b; the final entry is the toggle count).
  grid_offsets_.assign(e_count + 1, 0);
  grid_lo_.assign(e_count, 0.0);
  grid_scale_.assign(e_count, 0.0);
  for (std::size_t i = 0; i < e_count; ++i) {
    const std::uint32_t n = offsets_[i + 1] - offsets_[i];
    grid_offsets_[i] = static_cast<std::uint32_t>(grid_.size());
    // Degenerate spans and uint16-overflowing toggle counts fall back to
    // the exact linear count.
    if (n <= kLinearCut || n > 0xffff) continue;
    const double* a = times_.data() + offsets_[i];
    const double lo = a[0];
    const double hi = a[n - 1];
    if (!(hi - lo > kMinGridSpanNs)) continue;
    grid_lo_[i] = lo;
    grid_scale_[i] = static_cast<double>(kGridBuckets) / (hi - lo);
    for (std::uint32_t b = 0; b < kGridBuckets; ++b) {
      const double boundary =
          lo + static_cast<double>(b) / grid_scale_[i];
      grid_.push_back(static_cast<std::uint16_t>(
          std::lower_bound(a, a + n, boundary) - a));
    }
    grid_.push_back(static_cast<std::uint16_t>(n));
  }
  grid_offsets_[e_count] = static_cast<std::uint32_t>(grid_.size());

  // Voltage thresholds: toggle tau of endpoint i is crossed (noise-free)
  // iff tau + skew_i <= t_base / factor(v). With a = tau + skew_i:
  //   a <= 0          -> crossed at every voltage (-inf threshold)
  //   t_base / a < f_min -> the clamp floor keeps it unreachable (+inf)
  //   otherwise       -> v >= voltage_for_factor(t_base / a)
  // The map is monotone in tau, so each endpoint's thresholds stay
  // ascending and toggles_crossed is one upper_bound.
  const double k_sens = cfg_.delay.sensitivity_per_volt;
  has_thresholds_ = k_sens > 0.0 && t_base_ > 0.0;
  if (has_thresholds_) {
    const double f_min = cfg_.delay.factor(kInf);  // the clamp floor
    vthresh_.resize(total);
    for (std::size_t i = 0; i < e_count; ++i) {
      for (std::uint32_t j = offsets_[i]; j < offsets_[i + 1]; ++j) {
        const double a = times_[j] + skew_[i];
        if (a <= 0.0) {
          vthresh_[j] = -kInf;
        } else {
          const double f = t_base_ / a;
          vthresh_[j] = f < f_min ? kInf : cfg_.delay.voltage_for_factor(f);
        }
      }
      SLM_REQUIRE(std::is_sorted(vthresh_.begin() + offsets_[i],
                                 vthresh_.begin() + offsets_[i + 1]),
                  "CompiledCapture: thresholds not monotone");
    }
  }
}

BitVec CompiledCapture::sample(double v, Xoshiro256& rng) const {
  const auto& normal = FastNormal::instance();
  const double t_eff =
      effective_time(v) + normal(rng, 0.0, cfg_.common_jitter_sigma_ns);
  const std::size_t e_count = skew_.size();
  BitVec word(e_count);
  for (std::size_t i = 0; i < e_count; ++i) {
    const double jitter = normal(rng, 0.0, cfg_.jitter_sigma_ns);
    const double t = t_eff - skew_[i] + jitter;
    word.set(i, (initial_[i] ^ (count_crossed_time(i, t) & 1u)) != 0);
  }
  return word;
}

bool CompiledCapture::sample_bit(std::size_t i, double v,
                                 Xoshiro256& rng) const {
  SLM_REQUIRE(i < skew_.size(), "sample_bit: endpoint out of range");
  const auto& normal = FastNormal::instance();
  const double t_eff =
      effective_time(v) + normal(rng, 0.0, cfg_.common_jitter_sigma_ns);
  const double jitter = normal(rng, 0.0, cfg_.jitter_sigma_ns);
  const double t = t_eff - skew_[i] + jitter;
  return (initial_[i] ^ (count_crossed_time(i, t) & 1u)) != 0;
}

BitVec CompiledCapture::sample_subset(const std::vector<std::size_t>& bits,
                                      double v, Xoshiro256& rng) const {
  const auto& normal = FastNormal::instance();
  const double t_eff =
      effective_time(v) + normal(rng, 0.0, cfg_.common_jitter_sigma_ns);
  BitVec word(skew_.size());
  for (std::size_t i : bits) {
    SLM_REQUIRE(i < skew_.size(), "sample_subset: endpoint out of range");
    const double jitter = normal(rng, 0.0, cfg_.jitter_sigma_ns);
    const double t = t_eff - skew_[i] + jitter;
    word.set(i, (initial_[i] ^ (count_crossed_time(i, t) & 1u)) != 0);
  }
  return word;
}

std::uint32_t CompiledCapture::hw_from_draws(const std::uint32_t* idx,
                                             std::size_t k, double v,
                                             const double* z) const {
  const double t_eff =
      effective_time(v) + (0.0 + cfg_.common_jitter_sigma_ns * z[0]);
  const double sigma = cfg_.jitter_sigma_ns;
  std::uint32_t hw = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint32_t e = idx[j];
    const double t = t_eff - skew_[e] + (0.0 + sigma * z[1 + j]);
    hw += static_cast<std::uint32_t>(count_crossed_time(e, t) & 1u);
  }
  return hw;
}

PackedToggleSubset CompiledCapture::pack_subset(
    const std::vector<std::uint32_t>& idx) const {
  PackedToggleSubset ps;
  ps.delay_ = cfg_.delay;
  ps.t_base_ = t_base_;
  ps.common_jitter_sigma_ns_ = cfg_.common_jitter_sigma_ns;
  ps.jitter_sigma_ns_ = cfg_.jitter_sigma_ns;
  // Bucket boundaries are refined per endpoint until the widest
  // [entry(m-1), entry(m+2)) window holds at most this many toggles, so
  // the hot loop's trip count is both tiny and constant per endpoint.
  constexpr std::uint32_t kTargetWindow = 4;
  constexpr std::uint32_t kMaxBuckets = 2048;
  std::vector<std::uint16_t> entries;
  for (std::uint32_t e : idx) {
    SLM_REQUIRE(e < skew_.size(), "pack_subset: endpoint out of range");
    const double* a = times_.data() + offsets_[e];
    const std::uint32_t n = offsets_[e + 1] - offsets_[e];
    PackedToggleSubset::Endpoint m;
    m.skew = skew_[e];
    m.toff = static_cast<std::uint32_t>(ps.times_.size());
    m.goff = static_cast<std::uint32_t>(ps.grid_.size());
    m.count = n;
    ps.times_.insert(ps.times_.end(), a, a + n);
    if (n > kLinearCut && n <= 0xffff && a[n - 1] - a[0] > kMinGridSpanNs) {
      const double lo = a[0];
      std::uint32_t buckets = kGridBuckets;
      std::uint32_t window = 0;
      for (;; buckets *= 2) {
        m.grid_scale = static_cast<double>(buckets) / (a[n - 1] - lo);
        entries.assign(buckets + 1, static_cast<std::uint16_t>(n));
        for (std::uint32_t b = 0; b < buckets; ++b) {
          const double boundary = lo + static_cast<double>(b) / m.grid_scale;
          entries[b] = static_cast<std::uint16_t>(
              std::lower_bound(a, a + n, boundary) - a);
        }
        window = 0;
        for (std::uint32_t q = 0; q <= buckets; ++q) {
          const std::uint32_t right = entries[std::min(q + 2, buckets)];
          const std::uint32_t left = entries[q > 0 ? q - 1 : 0];
          window = std::max(window, right - left);
        }
        if (window <= kTargetWindow || buckets >= kMaxBuckets) break;
      }
      m.grid_lo = lo;
      m.buckets = static_cast<double>(buckets);
      m.window = window;
      ps.grid_.insert(ps.grid_.end(), entries.begin(), entries.end());
      ps.times_.insert(ps.times_.end(), window, kInf);  // sentinel pad
    }
    ps.meta_.push_back(m);
  }
  return ps;
}

bool CompiledCapture::toggle_from_draws(std::size_t i, double v,
                                        const double* z) const {
  const double t_eff =
      effective_time(v) + (0.0 + cfg_.common_jitter_sigma_ns * z[0]);
  const double t = t_eff - skew_[i] + (0.0 + cfg_.jitter_sigma_ns * z[1]);
  return (count_crossed_time(i, t) & 1u) != 0;
}

void CompiledCapture::toggles_from_draws(double v, const double* z,
                                         std::size_t* ones) const {
  const double t_eff =
      effective_time(v) + (0.0 + cfg_.common_jitter_sigma_ns * z[0]);
  const double sigma = cfg_.jitter_sigma_ns;
  const std::size_t e_count = skew_.size();
  for (std::size_t i = 0; i < e_count; ++i) {
    const double t = t_eff - skew_[i] + (0.0 + sigma * z[1 + i]);
    ones[i] += count_crossed_time(i, t) & 1u;
  }
}

std::size_t CompiledCapture::toggles_crossed(std::size_t i, double v) const {
  SLM_REQUIRE(i < skew_.size(), "toggles_crossed: endpoint out of range");
  if (has_thresholds_) {
    return count_leq(vthresh_.data() + offsets_[i],
                     offsets_[i + 1] - offsets_[i], v);
  }
  return count_crossed_time(i, effective_time(v) - skew_[i]);
}

std::size_t CompiledCapture::count_crossed_time(std::size_t i,
                                                double t) const {
  const double* a = times_.data() + offsets_[i];
  const std::uint32_t n = offsets_[i + 1] - offsets_[i];
  const std::uint32_t gb = grid_offsets_[i];
  if (grid_offsets_[i + 1] == gb) return count_leq(a, n, t);
  // Enclosing-window count: back the bucket index off by one on the left
  // and two on the right, so FP rounding in fb (orders of magnitude below
  // one bucket, see kMinGridSpanNs) cannot move a toggle out of the
  // window. Everything left of the window is <= t, everything right of it
  // is > t, and the branchless count inside is exact.
  const double fb = (t - grid_lo_[i]) * grid_scale_[i];
  double bl = fb - 1.0;
  if (!(bl > 0.0)) bl = 0.0;
  if (bl > static_cast<double>(kGridBuckets)) bl = kGridBuckets;
  double br = fb + 2.0;
  if (!(br > 0.0)) br = 0.0;
  if (br > static_cast<double>(kGridBuckets)) br = kGridBuckets;
  const std::uint32_t lo = grid_[gb + static_cast<std::uint32_t>(bl)];
  const std::uint32_t hi = grid_[gb + static_cast<std::uint32_t>(br)];
  return lo + count_leq(a + lo, hi - lo, t);
}

}  // namespace slm::timing
