// Cache-line-aligned vector storage for the buffers the AVX2 kernels
// stream: a plain std::vector is only 16-byte aligned, so half of the
// 256-bit loads on its rows would split a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace slm {

inline constexpr std::size_t kCacheLine = 64;

/// Allocator returning kCacheLine-aligned storage. It over-allocates
/// through plain malloc and keeps the raw pointer in the word below the
/// aligned block. The aligned operator new (glibc's aligned_alloc) was
/// tried first: with two capture threads the full-key benchmark workload
/// peaked at ~20 MB RSS instead of ~10 MB. Through malloc it peaks where
/// std::vector storage does.
template <class T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <class U>
  constexpr AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (SIZE_MAX - kCacheLine - sizeof(void*)) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    void* raw = std::malloc(n * sizeof(T) + kCacheLine + sizeof(void*));
    if (raw == nullptr) throw std::bad_alloc();
    const std::uintptr_t aligned =
        (reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*) + kCacheLine -
         1) &
        ~std::uintptr_t{kCacheLine - 1};
    void** block = reinterpret_cast<void**>(aligned);
    block[-1] = raw;
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, std::size_t) noexcept {
    std::free(reinterpret_cast<void**>(p)[-1]);
  }

  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace slm
