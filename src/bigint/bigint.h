// Arbitrary-precision unsigned integer arithmetic, from scratch.
//
// This is the numeric substrate under REED's public-key layer: the RSA
// blind-signature OPRF (DupLESS-style MLE key generation), RSA key
// regression, and the F_p / F_p² towers of the Type-A pairing that powers
// CP-ABE. Little-endian 64-bit limbs, normalized (no trailing zero limbs);
// values are non-negative — the few places needing signed intermediate
// results (extended gcd) handle the sign locally.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/random.h"
#include "util/bytes.h"

namespace reed::bigint {

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::uint64_t v) { if (v) limbs_.push_back(v); }  // NOLINT: implicit by design

  // Hex parsing/printing (no 0x prefix); bytes are big-endian.
  static BigInt FromHex(std::string_view hex);
  static BigInt FromBytes(ByteSpan be_bytes);
  // Little-endian limbs; high zero limbs are dropped.
  static BigInt FromLimbs(std::span<const std::uint64_t> limbs);
  std::string ToHex() const;
  Bytes ToBytes() const;                  // minimal big-endian encoding
  Bytes ToBytesPadded(std::size_t n) const;  // left-padded to n bytes

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }

  // Number of significant bits (0 for zero).
  std::size_t BitLength() const;
  bool Bit(std::size_t i) const;
  std::size_t LimbCount() const { return limbs_.size(); }
  std::uint64_t Limb(std::size_t i) const {
    return i < limbs_.size() ? limbs_[i] : 0;
  }
  // Low 64 bits.
  std::uint64_t ToU64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const = default;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;  // throws if other > *this
  BigInt operator*(const BigInt& other) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  // True in-place arithmetic (no allocation when capacity suffices).
  BigInt& operator+=(const BigInt& other);
  BigInt& operator-=(const BigInt& other);  // throws if other > *this

  // Quotient and remainder; throws on division by zero.
  struct DivMod;
  DivMod Divide(const BigInt& divisor) const;
  BigInt operator/(const BigInt& d) const;
  BigInt operator%(const BigInt& d) const;

  // Single-limb fast paths.
  BigInt MulLimb(std::uint64_t m) const;
  std::uint64_t ModLimb(std::uint64_t m) const;

  // (a + b) mod m, (a - b) mod m, (a * b) mod m — inputs need not be reduced.
  static BigInt AddMod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt SubMod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt MulMod(const BigInt& a, const BigInt& b, const BigInt& m);

  // a^e mod m. m odd uses Montgomery; even moduli fall back to square&mul.
  static BigInt PowMod(const BigInt& a, const BigInt& e, const BigInt& m);

  static BigInt Gcd(BigInt a, BigInt b);

  // Modular inverse via extended Euclid; throws Error if gcd(a, m) != 1.
  static BigInt InverseMod(const BigInt& a, const BigInt& m);
  // The same for odd m > 1, with nullopt instead of the throw: callers
  // that expect a non-unit now and then (OPRF blinding) test, not catch.
  static std::optional<BigInt> TryInverseModOdd(const BigInt& a,
                                                const BigInt& m);

  // Uniform random value in [0, bound) / exact bit length.
  static BigInt Random(crypto::Rng& rng, const BigInt& bound);
  static BigInt RandomBits(crypto::Rng& rng, std::size_t bits);

 private:
  friend class Montgomery;
  void Normalize();
  std::vector<std::uint64_t> limbs_;
};

struct BigInt::DivMod {
  BigInt quotient;
  BigInt remainder;
};

inline BigInt BigInt::operator/(const BigInt& d) const {
  return Divide(d).quotient;
}
inline BigInt BigInt::operator%(const BigInt& d) const {
  return Divide(d).remainder;
}

// The one Montgomery multiply (CIOS, Koç–Acar–Kaliski) under every
// modular product in the library: RSA moduli of any width through
// Montgomery below, and the fixed-width F_p of the pairing field directly.
// All spans hold little-endian limbs and have the length k of `n`:
//
//   out = a · b · 2^(-64k) mod n,   for odd n and a, b < n.
//
// `scratch` needs k + 1 limbs. `out` may alias `a` or `b`. The routine
// allocates nothing, and its final reduction is a masked select, not a
// branch on the result. It is inline so that a caller with a fixed width
// (Fp's 8 limbs) gets a fully unrolled copy.
inline void MontMul(std::span<std::uint64_t> out,
                    std::span<const std::uint64_t> a,
                    std::span<const std::uint64_t> b,
                    std::span<const std::uint64_t> n,
                    std::uint64_t n_prime,
                    std::span<std::uint64_t> scratch) {
  using u64 = std::uint64_t;
  using u128 = unsigned __int128;
  const std::size_t k = n.size();
  // t never aliases the operands, so it can live in registers across the
  // inner loop.
  u64* __restrict t = scratch.data();
  for (std::size_t j = 0; j <= k; ++j) t[j] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // One pass: t = (t + a·b[i] + m·n) / 2^64, with m chosen so the low
    // limb cancels. The product and reduction carries run side by side.
    const u64 bi = b[i];
    u128 cur = static_cast<u128>(a[0]) * bi + t[0];
    u64 c1 = static_cast<u64>(cur >> 64);
    const u64 m = static_cast<u64>(cur) * n_prime;
    u128 red = static_cast<u128>(m) * n[0] + static_cast<u64>(cur);
    u64 c2 = static_cast<u64>(red >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      cur = static_cast<u128>(a[j]) * bi + t[j] + c1;
      c1 = static_cast<u64>(cur >> 64);
      red = static_cast<u128>(m) * n[j] + static_cast<u64>(cur) + c2;
      c2 = static_cast<u64>(red >> 64);
      t[j - 1] = static_cast<u64>(red);
    }
    const u128 top = static_cast<u128>(t[k]) + c1 + c2;
    t[k - 1] = static_cast<u64>(top);
    t[k] = static_cast<u64>(top >> 64);
  }
  // t < 2n: out = t − n unless that borrows, selected without a branch.
  u64 borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    u128 diff = static_cast<u128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
  const u64 keep_t = u64{0} - (borrow & static_cast<u64>(t[k] == 0));
  for (std::size_t j = 0; j < k; ++j) {
    out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
  }
}

// -n^(-1) mod 2^64 for odd n0: the per-modulus constant of MontMul.
std::uint64_t MontNPrime(std::uint64_t n0);

// Montgomery context for a fixed odd modulus: repeated modular
// multiplication and exponentiation over MontMul. Building one costs a
// short division and a few squarings, so every long-lived key keeps its
// contexts (rsa::RsaPublicContext, rsa::RsaPrivateContext) instead of
// rebuilding them per operation.
class Montgomery {
 public:
  explicit Montgomery(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }

  // Representation conversion. ToMont accepts any width: a value wider than
  // n is folded in n-sized chunks through MontMul, with no long division.
  BigInt ToMont(const BigInt& a) const;    // (a mod n) * R mod n
  BigInt FromMont(const BigInt& a) const;  // a * R^-1 mod n

  // Montgomery product a · b · R⁻¹ mod n. The operands are < n, except
  // that one of them may be any value below R (R = 2^(64k)).
  BigInt MulMont(const BigInt& a, const BigInt& b) const;

  // (a − b) mod n for a, b < n, with the wrap-around selected by a mask.
  // Montgomery form is additive, so this serves either representation.
  BigInt Sub(const BigInt& a, const BigInt& b) const;

  // Plain-value modular ops (convert in/out internally).
  BigInt Mul(const BigInt& a, const BigInt& b) const;
  BigInt Pow(const BigInt& base, const BigInt& exp,
             std::size_t exp_bits = 0) const;
  // base already in Montgomery form; result in Montgomery form.
  //
  // The one modular exponentiation of the library: a fixed 4-bit window,
  // where every window squares four times and multiplies once by a table
  // entry picked with a masked scan over all 16 entries. The sequence of
  // operations and memory accesses depends only on the number of windows,
  // so a secret exponent (RSA's dp/dq, the key-regression wind) passes its
  // public width as `exp_bits` (it must be ≥ exp.BitLength(); 0 means
  // exp.BitLength(), right for public exponents).
  BigInt PowMont(const BigInt& base_mont, const BigInt& exp,
                 std::size_t exp_bits = 0) const;

 private:
  // Copies `a` (< R) into k zero-padded limbs.
  void Pad(const BigInt& a, std::span<std::uint64_t> out) const;

  BigInt n_;
  std::size_t k_;           // limb count of n
  std::uint64_t n_prime_;   // -n^{-1} mod 2^64
  BigInt r_mod_n_;          // R mod n
  BigInt r2_mod_n_;         // R^2 mod n
};

}  // namespace reed::bigint
