// Rabin fingerprinting over GF(2) — the rolling hash driving variable-size
// chunking (paper §V "Client": Rabin fingerprinting with min/max/average
// chunk-size parameters).
//
// The fingerprint of a byte window is the residue of its polynomial mod an
// irreducible degree-53 polynomial. Push/pop are O(1) via two precomputed
// 256-entry tables.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace reed::chunk {

class RabinWindow {
 public:
  static constexpr std::uint64_t kDefaultPoly = 0x3DA3358B4DC173ULL;  // deg 53
  static constexpr std::size_t kDefaultWindowSize = 48;

  explicit RabinWindow(std::size_t window_size = kDefaultWindowSize,
                       std::uint64_t poly = kDefaultPoly);

  // Slides one byte into the window (oldest byte falls out once the window
  // is full) and returns the updated fingerprint.
  std::uint64_t Slide(std::uint8_t in);

  // One step of the same rolling hash as a pure function: `out` is the
  // byte leaving the window, 0 while the window fills (a zero byte leaving
  // changes nothing). A caller that holds the input reads `out` from it
  // and keeps no ring buffer.
  std::uint64_t Roll(std::uint64_t fp, std::uint8_t in,
                     std::uint8_t out) const {
    const std::uint64_t shifted = (fp << 8) | in;
    return (shifted & low_mask_) ^ append_table_[shifted >> degree_] ^
           remove_table_[out];
  }

  std::uint64_t fingerprint() const { return fp_; }
  std::size_t window_size() const { return window_size_; }

  void Reset();

  // (value mod poly) over GF(2); exposed for tests.
  static std::uint64_t PolyMod(std::uint64_t value, std::uint64_t poly);

 private:
  std::size_t window_size_;
  std::uint64_t poly_;
  int degree_;
  std::uint64_t low_mask_;  // 2^degree − 1
  std::uint64_t fp_ = 0;
  std::size_t pos_ = 0;
  std::size_t filled_ = 0;
  std::vector<std::uint8_t> window_;
  // append_table_[b]: (b << degree) mod poly — reduces the overflow byte.
  std::array<std::uint64_t, 256> append_table_;
  // remove_table_[b]: (b << 8*window_size) mod poly — cancels the oldest byte.
  std::array<std::uint64_t, 256> remove_table_;
};

}  // namespace reed::chunk
