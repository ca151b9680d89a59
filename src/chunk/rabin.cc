#include "chunk/rabin.h"

namespace reed::chunk {

namespace {

int DegreeOf(std::uint64_t poly) {
  int d = -1;
  while (poly) {
    ++d;
    poly >>= 1;
  }
  return d;
}

// GF(2) multiply-then-reduce of a byte by a (< 2^56) polynomial value.
std::uint64_t PolyMulByteMod(std::uint8_t b, std::uint64_t m,
                             std::uint64_t poly) {
  std::uint64_t acc = 0;
  for (int bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) acc ^= m << bit;
  }
  return RabinWindow::PolyMod(acc, poly);
}

}  // namespace

std::uint64_t RabinWindow::PolyMod(std::uint64_t value, std::uint64_t poly) {
  int d = DegreeOf(poly);
  for (int bit = 63; bit >= d; --bit) {
    if (value & (std::uint64_t(1) << bit)) {
      value ^= poly << (bit - d);
    }
  }
  return value;
}

RabinWindow::RabinWindow(std::size_t window_size, std::uint64_t poly)
    : window_size_(window_size), poly_(poly), degree_(DegreeOf(poly)),
      low_mask_((std::uint64_t(1) << degree_) - 1),
      window_(window_size, 0) {
  if (window_size_ == 0) throw Error("RabinWindow: window size must be > 0");
  if (degree_ < 9 || degree_ > 56) {
    throw Error("RabinWindow: polynomial degree must be in [9, 56]");
  }
  for (int b = 0; b < 256; ++b) {
    append_table_[b] =
        PolyMod(static_cast<std::uint64_t>(b) << degree_, poly_);
  }
  // x^(8*window_size) mod poly, by repeated byte shifts.
  std::uint64_t x8w = 1;
  for (std::size_t i = 0; i < window_size_; ++i) {
    x8w = PolyMod(x8w << 8, poly_);
  }
  for (int b = 0; b < 256; ++b) {
    remove_table_[b] = PolyMulByteMod(static_cast<std::uint8_t>(b), x8w, poly_);
  }
}

void RabinWindow::Reset() {
  fp_ = 0;
  pos_ = 0;
  filled_ = 0;
  std::fill(window_.begin(), window_.end(), 0);
}

std::uint64_t RabinWindow::Slide(std::uint8_t in) {
  const bool full = filled_ == window_size_;
  fp_ = Roll(fp_, in, full ? window_[pos_] : std::uint8_t{0});
  window_[pos_] = in;
  if (++pos_ == window_size_) pos_ = 0;
  if (!full) ++filled_;
  return fp_;
}

}  // namespace reed::chunk
