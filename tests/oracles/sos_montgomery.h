// Differential oracle: the separated-operand-scanning (SOS) Montgomery
// product that bigint::Montgomery::MulMont used before the library moved to
// the one allocation-free CIOS kernel (bigint::MontMul). It forms the full
// 2k-limb product in a heap vector, then reduces limb by limb. Kept only in
// tests/, where the kernel must agree with it bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"

namespace reed::bigint::oracle {

// a · b · 2^(-64k) mod n for odd n of k limbs and a, b < n.
inline BigInt SosMulMont(const BigInt& a, const BigInt& b, const BigInt& n) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  const std::size_t k = n.LimbCount();
  const u64 n_prime = MontNPrime(n.Limb(0));
  std::vector<u64> t(2 * k + 1, 0);
  for (std::size_t i = 0; i < a.LimbCount(); ++i) {
    u64 carry = 0;
    u64 ai = a.Limb(i);
    for (std::size_t j = 0; j < b.LimbCount(); ++j) {
      u128 cur = static_cast<u128>(ai) * b.Limb(j) + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t idx = i + b.LimbCount();
    while (carry) {
      u128 cur = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
      ++idx;
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    u64 m = t[i] * n_prime;
    u64 carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      u128 cur = static_cast<u128>(m) * n.Limb(j) + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    std::size_t idx = i + k;
    while (carry) {
      u128 cur = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
      ++idx;
    }
  }
  BigInt result = BigInt::FromLimbs(
      std::span<const u64>(t.data() + k, t.size() - k));
  if (result >= n) result -= n;
  return result;
}

}  // namespace reed::bigint::oracle
