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
// The Miller loop runs in two halves. Preparation walks V = [prefix of r]P
// in Jacobian coordinates (no field inversion) and records each line's
// coefficients; they depend only on P. Evaluation squares the accumulator
// and multiplies in each line at φ(Q). An unprepared pairing is the two back
// to back; CP-ABE prepares a private key's points once and evaluates them
// against every ciphertext. Each line is off from the affine one by a
// factor in F_p*, and c^(p−1) = 1 for every such c, so the final
// exponentiation maps both loops to the same GT element, bit for bit.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "pairing/curve.h"

namespace reed::pairing {

// A point P with its Miller-loop lines, ready to be the first argument of
// any number of pairings. Preparing costs what one unprepared loop's point
// arithmetic costs, and holds |r| + popcount(r) − 2 lines (about 50 KB for
// the default parameters). For a private-key point the lines are as secret
// as the point: they are wiped when the last copy goes, and never
// serialized.
class G1Prepared {
 public:
  G1Prepared() = default;
  G1Prepared(const G1Prepared&) = default;
  G1Prepared(G1Prepared&&) = default;
  G1Prepared& operator=(const G1Prepared&) = default;
  G1Prepared& operator=(G1Prepared&&) = default;
  ~G1Prepared();

  const G1Point& point() const { return point_; }

 private:
  friend class TypeAPairing;
  G1Point point_;
  std::vector<MillerLine> lines_;  // in loop order; empty for infinity
};

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
  // loop values and exponentiated once. The pairing is symmetric, so the
  // loop for (Q, P) may stand in for the loop for (P, Q) inside such a
  // product: the two raw values differ, their exponentiations do not.
  Fp2 MillerLoop(const G1Point& p, const G1Point& q) const;
  Fp2 FinalExponentiation(const Fp2& f) const;

  // The Miller loop split at the point where it stops depending on Q:
  // MillerLoop(p, q) == MillerLoop(Prepare(p), q), bit for bit.
  G1Prepared Prepare(const G1Point& p) const;
  Fp2 MillerLoop(const G1Prepared& p, const G1Point& q) const;

  // One factor of a product of Miller loops.
  struct LoopTerm {
    const G1Prepared* p;
    const G1Point* q;
  };
  // Π_k MillerLoop(p_k, q_k) in one loop that squares the accumulator once
  // per step for all terms: bit for bit the product of the separate loops.
  // This is the one Miller loop; the overloads above call it.
  Fp2 MillerLoop(std::span<const LoopTerm> terms) const;

 private:
  TypeAParams params_;
  std::unique_ptr<FpField> field_;
  G1Point generator_;
};

}  // namespace reed::pairing
