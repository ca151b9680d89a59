// Fixed-base exponentiation tables for the CP-ABE encrypt path.
//
// A CP-ABE encryption raises the same few bases to fresh secret scalars:
// g and h = g^β from the public key, e(g,g)^α in GT, and the hashed point
// of each attribute named in the policy. For such a base B the tables hold
// j·16^i·B for every 4-bit window i of a scalar below the group order r and
// every digit j, so k·B = Σ_i table[i][k_i]: one mixed addition (or one
// F_p² multiplication) per window, and no doublings.
//
// The scalars are secret (the CP-ABE secret s and its shares, the hybrid
// key's exponent z), so the tables are read and combined in constant time:
// every window reads all of its entries and keeps one by mask, and the
// G1 additions take no branch on the scalar — a zero digit or a still-empty
// accumulator is handled by masked moves, not by skipping work.
//
// Size: ⌈|r|/4⌉ windows × 15 affine points (G1) or 16 F_p² elements (GT),
// about 90 KB for the default 160-bit r and 512-bit p.
#pragma once

#include <vector>

#include "pairing/curve.h"

namespace reed::pairing {

class G1FixedBase {
 public:
  // The full comb, one row of 15 multiples per window (about 86 KB): a
  // multiply is one masked mixed addition per window, with no doublings.
  // `base` must lie in the order-r subgroup (or be infinity): the
  // constant-time sum relies on no partial sum meeting ± a later entry.
  G1FixedBase(const G1Point& base, const BigInt& order);
  // One row, 1·B .. 15·B (about 2 KB, one batched inversion to build), for
  // a base used too rarely to keep a comb: each window then also doubles
  // four times. Still constant-time in the scalar.
  static G1FixedBase SingleRow(const G1Point& base, const BigInt& order);

  const G1Point& base() const { return base_; }

  // k·B with Z in place: infinity when k ≡ 0 mod r. k ≥ r is reduced first.
  JacobianPoint MulJacobian(const BigInt& k) const;
  G1Point Mul(const BigInt& k) const { return MulJacobian(k).ToAffine(); }

  // The size of a comb for a given group order, before any is built.
  static std::size_t TableBytes(const BigInt& order);

 private:
  struct Entry {
    Fp x, y;
  };
  static constexpr std::size_t kDigits = 15;  // j = 1 .. 15 per window

  G1FixedBase(const G1Point& base, const BigInt& order, std::size_t rows);

  G1Point base_;
  BigInt order_;
  std::size_t windows_ = 0;
  std::size_t rows_ = 0;      // windows_ for the comb, 1 for a single row
  std::vector<Entry> table_;  // row-major, rows_ × kDigits
};

class GtFixedBase {
 public:
  GtFixedBase(const Fp2& base, const BigInt& order);

  const Fp2& base() const { return base_; }

  // base^k; the base must have order dividing r. k ≥ r is reduced first.
  Fp2 Pow(const BigInt& k) const;

 private:
  static constexpr std::size_t kDigits = 16;  // j = 0 .. 15 per window

  Fp2 base_;
  BigInt order_;
  std::size_t windows_ = 0;
  std::vector<Fp2> table_;  // window-major, windows_ × kDigits
};

}  // namespace reed::pairing
