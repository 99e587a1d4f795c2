// Cache-line / SIMD-register aligned buffer with RAII ownership.
//
// State-vector partitions must be 64-byte aligned so that the AVX-512
// kernels (Listing 2 of the paper) load and store whole W-aligned vectors
// that never straddle a cache line.
// This is the host-side stand-in for the paper's SAFE_ALOC_GPU /
// SAFE_ALOC_HOST macros.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

#include "common/error.hpp"

namespace svsim {

/// Alignment used for all amplitude buffers: one AVX-512 register / one
/// x86 cache line.
inline constexpr std::size_t kBufferAlign = 64;

/// Owning, 64-byte-aligned, zero-initialized array of T.
/// Movable, non-copyable (partitions are owned by exactly one device/PE).
template <typename T>
class AlignedBuffer {
public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) { allocate(count); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// (Re)allocate for `count` elements, zero-filled. Previous contents are
  /// discarded.
  void allocate(std::size_t count) {
    release();
    if (count == 0) return;
    // Round the byte size up to a multiple of the alignment as required by
    // std::aligned_alloc.
    std::size_t bytes = count * sizeof(T);
    bytes = (bytes + kBufferAlign - 1) / kBufferAlign * kBufferAlign;
    data_ = static_cast<T*>(std::aligned_alloc(kBufferAlign, bytes));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memset(data_, 0, bytes);
    count_ = count;
  }

  void release() {
    std::free(data_);
    data_ = nullptr;
    count_ = 0;
  }

  void zero() {
    if (data_ != nullptr) std::memset(data_, 0, count_ * sizeof(T));
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

private:
  T* data_ = nullptr;
  std::size_t count_ = 0;
};

} // namespace svsim
