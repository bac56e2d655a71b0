#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sunway/check/shadow.hpp"

// Local-data-memory (scratchpad) arena of one CPE: 256 KB on SW26010Pro.
// Kernels allocate their tiles here; exceeding the capacity throws, which
// is exactly the constraint that forces the loop-tiling design of paper
// Sec. 3.2 (Fig. 5: 128 KB for kernel1 tiles, 60 KB static + remainder
// irregular for kernel2).
//
// In checked mode (SWRAMAN_CHECK=1, see check/check.hpp) the arena keeps
// a shadow tile registry — base/size/generation per allocation — so DMA
// and combine-op accesses are bounds-checked against live tiles, and a
// pointer used after reset() resolves to a retired tile (the backing
// memory is quarantined, not freed) and is reported as use-after-reset.

namespace swraman::sunway {

class LdmArena {
 public:
  explicit LdmArena(std::size_t capacity_bytes) : capacity_(capacity_bytes) {
    if (check::enabled()) {
      shadow_ = std::make_unique<swcheck::LdmShadow>();
    }
  }

  // Allocates n elements of T; throws swraman::Error when the scratchpad
  // would overflow. Pointers stay valid until reset().
  template <typename T>
  T* allocate(std::size_t n) {
    // Checked multiply: a wrapped n * sizeof(T) would pass the capacity
    // check as a tiny allocation and let the kernel smash the heap. The
    // - 63 leaves headroom for align_up.
    SWRAMAN_REQUIRE(
        n <= (std::numeric_limits<std::size_t>::max() - 63) / sizeof(T),
        "LdmArena: allocation of " + std::to_string(n) + " x " +
            std::to_string(sizeof(T)) + " B overflows size_t");
    const std::size_t bytes = align_up(n * sizeof(T));
    SWRAMAN_REQUIRE(used_ + bytes <= capacity_,
                    "LdmArena: scratchpad overflow — tile too large");
    blocks_.emplace_back(bytes);
    used_ += bytes;
    peak_ = used_ > peak_ ? used_ : peak_;
    T* p = reinterpret_cast<T*>(blocks_.back().data());
    if (shadow_) shadow_->on_allocate(p, n * sizeof(T));
    return p;
  }

  void reset() {
    if (shadow_) {
      // Quarantine the blocks: stale pointers must keep resolving to
      // their (now retired) tiles so the checker can attribute a
      // use-after-reset instead of the program reading freed memory.
      shadow_->on_reset();
      retired_blocks_.reserve(retired_blocks_.size() + blocks_.size());
      for (auto& b : blocks_) retired_blocks_.push_back(std::move(b));
    }
    blocks_.clear();
    used_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t peak() const { return peak_; }
  [[nodiscard]] std::size_t available() const { return capacity_ - used_; }

  // Shadow tile registry; null when checked mode was off at construction.
  [[nodiscard]] const swcheck::LdmShadow* shadow() const {
    return shadow_.get();
  }

 private:
  static std::size_t align_up(std::size_t bytes) {
    return (bytes + 63) / 64 * 64;  // 64-byte (vector) alignment granules
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
  std::vector<std::vector<unsigned char>> blocks_;
  // Checked mode only: memory retired by reset(), kept alive for
  // use-after-reset attribution until the arena dies.
  std::vector<std::vector<unsigned char>> retired_blocks_;
  std::unique_ptr<swcheck::LdmShadow> shadow_;
};

}  // namespace swraman::sunway
