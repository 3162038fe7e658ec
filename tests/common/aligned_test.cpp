#include "common/aligned.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace slm {
namespace {

template <class T>
bool cache_line_aligned(const T* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLine == 0;
}

TEST(AlignedVector, StorageIsCacheLineAligned) {
  for (std::size_t n : {1, 3, 8, 64, 1000, 70000, 1 << 20}) {
    AlignedVector<std::int64_t> a(n, 7);
    AlignedVector<double> b(n);
    AlignedVector<std::int32_t> c(n);
    EXPECT_TRUE(cache_line_aligned(a.data())) << n;
    EXPECT_TRUE(cache_line_aligned(b.data())) << n;
    EXPECT_TRUE(cache_line_aligned(c.data())) << n;
    EXPECT_EQ(a.back(), 7);
    a.resize(2 * n + 5, 9);  // reallocates
    EXPECT_TRUE(cache_line_aligned(a.data())) << n;
    EXPECT_EQ(a[n - 1], 7);
    EXPECT_EQ(a.back(), 9);
    const AlignedVector<std::int64_t> copy = a;
    EXPECT_TRUE(cache_line_aligned(copy.data())) << n;
    EXPECT_EQ(copy, a);
  }
}

}  // namespace
}  // namespace slm
