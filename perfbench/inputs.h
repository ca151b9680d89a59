// Deterministic workload inputs: every byte a workload uploads is a pure
// function of (--seed, a stream tag, an index), so one seed gives
// byte-identical inputs on every run and machine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "crypto/random.h"
#include "util/bytes.h"

namespace perfbench {

inline std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A generator for stream `tag`, item `index`, under `seed`.
inline reed::crypto::DeterministicRng StreamRng(std::uint64_t seed,
                                                std::string_view tag,
                                                std::uint64_t index) {
  std::uint64_t h = SplitMix64(seed);
  for (char c : tag) h = SplitMix64(h ^ static_cast<std::uint8_t>(c));
  return reed::crypto::DeterministicRng(SplitMix64(h ^ index) | 1);
}

inline reed::Bytes RandomBytes(std::uint64_t seed, std::string_view tag,
                               std::uint64_t index, std::size_t n) {
  return StreamRng(seed, tag, index).Generate(n);
}

// The next version of `prev`: about `fraction` of its bytes edited, half as
// overwrites and a quarter each as an insertion and a deletion, so
// content-defined chunk boundaries shift around the edits.
inline reed::Bytes EditVersion(const reed::Bytes& prev, reed::crypto::Rng& rng,
                               double fraction) {
  const std::size_t budget = std::max<std::size_t>(
      64,
      static_cast<std::size_t>(static_cast<double>(prev.size()) * fraction));
  reed::Bytes out = prev;
  auto offset = [&](std::size_t span) {
    return static_cast<std::size_t>(rng.Uniform(out.size() - span));
  };
  for (int i = 0; i < 2; ++i) {  // two overwrites
    std::size_t len = budget / 4;
    reed::Bytes fresh = rng.Generate(len);
    std::copy(fresh.begin(), fresh.end(),
              out.begin() + static_cast<std::ptrdiff_t>(offset(len)));
  }
  {  // one insertion
    reed::Bytes fresh = rng.Generate(budget / 4);
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(offset(0)),
               fresh.begin(), fresh.end());
  }
  {  // one deletion
    std::size_t len = budget / 4;
    auto at = out.begin() + static_cast<std::ptrdiff_t>(offset(len));
    out.erase(at, at + static_cast<std::ptrdiff_t>(len));
  }
  return out;
}

// Zipfian sampler over ranks [0, n): rank r has weight 1 / (r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] std::size_t Sample(reed::crypto::Rng& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.UniformDouble());
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
