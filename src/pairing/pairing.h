// Type-A symmetric pairing ê: G1 × G1 → GT ⊂ F_p², built from scratch.
//
// Construction (matching PBC's "type A" parameters, which the cpabe toolkit
// used in the paper's prototype):
//   * r: 160-bit prime group order; cofactor h with p = h·r − 1 prime and
//     p ≡ 3 mod 4  (so #E(F_p) = p + 1 = h·r),
//   * E: y² = x³ + x over F_p (supersingular),
//   * distortion map φ(x, y) = (−x, i·y) into E(F_p²),
//   * ê(P, Q) = Tate(P, φ(Q)) via a denominator-free Miller loop and final
//     exponentiation (p²−1)/r = (p−1)·h applied as a Frobenius-assisted
//     conjugate/inverse step followed by one h-bit exponentiation.
//
// The Miller loop keeps V in Jacobian coordinates, so it does no field
// inversion. Each line value it multiplies in is off from the affine one by
// a factor in F_p*, and c^(p−1) = 1 for every such c, so the final
// exponentiation maps both loops to the same GT element, bit for bit.
#pragma once

#include <memory>

#include "pairing/curve.h"

namespace reed::pairing {

struct TypeAParams {
  BigInt p;         // field prime, p ≡ 3 mod 4
  BigInt r;         // prime group order
  BigInt cofactor;  // h = (p+1)/r

  // Freshly generated parameters with the requested sizes.
  static TypeAParams Generate(std::size_t rbits, std::size_t pbits,
                              crypto::Rng& rng);
  // Fixed 160/512-bit parameter set (PBC a.param sizes) for reproducible
  // benchmarks and fast test startup.
  static TypeAParams Default();
};

class TypeAPairing {
 public:
  explicit TypeAPairing(TypeAParams params);

  const TypeAParams& params() const { return params_; }
  const FpField* field() const { return field_.get(); }
  const BigInt& group_order() const { return params_.r; }

  // A deterministic generator of G1 (hash of a fixed tag).
  const G1Point& generator() const { return generator_; }

  // Hash arbitrary data onto G1 (order-r subgroup).
  G1Point HashToGroup(ByteSpan data) const;

  // Uniform scalar in [1, r).
  BigInt RandomScalar(crypto::Rng& rng) const;

  // The pairing ê(P, Q) = FinalExponentiation(MillerLoop(P, Q)); both
  // inputs must lie in the order-r subgroup.
  Fp2 Pair(const G1Point& p, const G1Point& q) const;

  // The two halves of Pair. FinalExponentiation is a group homomorphism
  // F_p²* → GT, so a product of pairings (or quotient: the loop value for
  // (−P, Q) stands for ê(P, Q)⁻¹) and powers of them can be combined on raw
  // loop values and exponentiated once.
  Fp2 MillerLoop(const G1Point& p, const G1Point& q) const;
  Fp2 FinalExponentiation(const Fp2& f) const;

 private:
  TypeAParams params_;
  std::unique_ptr<FpField> field_;
  G1Point generator_;
};

}  // namespace reed::pairing
