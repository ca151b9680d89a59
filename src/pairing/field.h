// Finite-field tower for the Type-A pairing: F_p and F_p² = F_p[i]/(i²+1).
//
// The CP-ABE layer (paper §IV-C) needs a symmetric bilinear pairing; we
// build the same construction the cpabe toolkit's PBC "type A" parameters
// use: a supersingular curve y² = x³ + x over F_p with p ≡ 3 mod 4, whose
// pairing lands in F_p². Elements are fixed 8-limb arrays in Montgomery form
// with R = 2^512 whatever the width of p, multiplied by bigint::MontMul on
// the stack: field arithmetic never touches the heap, and every loop has a
// compile-time trip count. A field context is shared by all elements of the
// same field.
#pragma once

#include <array>
#include <cstdint>

#include "bigint/bigint.h"

namespace reed::pairing {

using bigint::BigInt;

// Widest supported p: 8 limbs, 512 bits (PBC a.param size).
inline constexpr std::size_t kFpMaxLimbs = 8;
using FpLimbs = std::array<std::uint64_t, kFpMaxLimbs>;

// Shared context for arithmetic mod a fixed prime p (p ≡ 3 mod 4).
class FpField {
 public:
  // Throws Error unless p ≡ 3 mod 4 and p fits in kFpMaxLimbs limbs.
  explicit FpField(BigInt p);

  const BigInt& p() const { return p_; }
  std::size_t element_bytes() const { return ebytes_; }
  // (p+1)/4 — the square-root exponent for p ≡ 3 mod 4.
  const BigInt& sqrt_exp() const { return sqrt_exp_; }
  // p − 2 — the Fermat inversion exponent.
  const BigInt& inverse_exp() const { return inverse_exp_; }

  // Limb-level view for Fp (R = 2^512).
  const FpLimbs& modulus_limbs() const { return p_limbs_; }
  const FpLimbs& one() const { return one_; }  // R mod p
  const FpLimbs& r2() const { return r2_; }    // R² mod p

  // out = a · b · R⁻¹ mod p; out may alias a or b.
  void MulMont(FpLimbs& out, const FpLimbs& a, const FpLimbs& b) const;

 private:
  BigInt p_;
  BigInt sqrt_exp_;
  BigInt inverse_exp_;
  std::size_t ebytes_;
  std::uint64_t n_prime_;
  FpLimbs p_limbs_{};
  FpLimbs one_{};
  FpLimbs r2_{};
};

// An element of F_p (Montgomery form internally).
class Fp {
 public:
  Fp() = default;

  static Fp Zero(const FpField* f) { return Fp(f, FpLimbs{}); }
  static Fp One(const FpField* f) { return Fp(f, f->one()); }
  static Fp FromBigInt(const FpField* f, const BigInt& plain);
  static Fp FromU64(const FpField* f, std::uint64_t v);
  static Fp Random(const FpField* f, crypto::Rng& rng);

  BigInt ToBigInt() const;             // plain (non-Montgomery) value
  Bytes ToBytes() const;               // fixed-width big-endian
  static Fp FromBytes(const FpField* f, ByteSpan b);

  bool IsZero() const { return v_ == FpLimbs{}; }
  bool operator==(const Fp& o) const { return v_ == o.v_; }

  // Add, subtract and multiply take no branch on the operands' values.
  Fp operator+(const Fp& o) const;
  Fp operator-(const Fp& o) const;
  Fp operator*(const Fp& o) const;
  Fp Neg() const;
  // Constant-time conditional move: *this = o where mask is all ones, left
  // as is where it is zero. Both must belong to the same field.
  void CMov(const Fp& o, std::uint64_t mask);
  Fp Square() const { return *this * *this; }
  // Fermat: a^(p−2), staying in the Montgomery domain. Throws on zero.
  Fp Inverse() const;
  // For a public exponent (the sequence of operations follows e).
  Fp Pow(const BigInt& e) const;

  // Square root for p ≡ 3 mod 4; returns false if not a QR.
  bool Sqrt(Fp* out) const;

  const FpField* field() const { return field_; }

 private:
  Fp(const FpField* field, const FpLimbs& mont_value)
      : field_(field), v_(mont_value) {}

  const FpField* field_ = nullptr;
  FpLimbs v_{};  // Montgomery form, < p
};

// An element a + b·i of F_p², i² = -1 (valid because p ≡ 3 mod 4).
class Fp2 {
 public:
  Fp2() = default;
  Fp2(Fp a, Fp b) : a_(a), b_(b) {}

  static Fp2 One(const FpField* f) { return Fp2(Fp::One(f), Fp::Zero(f)); }

  const Fp& a() const { return a_; }
  const Fp& b() const { return b_; }

  bool IsOne() const;
  bool operator==(const Fp2& o) const { return a_ == o.a_ && b_ == o.b_; }

  Fp2 operator+(const Fp2& o) const { return Fp2(a_ + o.a_, b_ + o.b_); }
  Fp2 operator-(const Fp2& o) const { return Fp2(a_ - o.a_, b_ - o.b_); }
  Fp2 operator*(const Fp2& o) const;
  Fp2 Square() const;
  Fp2 Conjugate() const { return Fp2(a_, b_.Neg()); }
  void CMov(const Fp2& o, std::uint64_t mask) {
    a_.CMov(o.a_, mask);
    b_.CMov(o.b_, mask);
  }
  Fp2 Inverse() const;
  // For a public exponent, as Fp::Pow; secret exponents of a fixed base go
  // through GtFixedBase.
  Fp2 Pow(const BigInt& e) const;

  Bytes ToBytes() const;
  static Fp2 FromBytes(const FpField* f, ByteSpan bytes);

 private:
  Fp a_, b_;
};

}  // namespace reed::pairing
