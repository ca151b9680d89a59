// The supersingular curve E: y² = x³ + x over F_p and its order-r subgroup
// G1, plus hash-to-point. With p ≡ 3 mod 4, #E(F_p) = p + 1 = cofactor · r.
#pragma once

#include <span>
#include <vector>

#include "pairing/field.h"

namespace reed::pairing {

// Affine point on E (with a distinguished point at infinity).
class G1Point {
 public:
  G1Point() : infinity_(true) {}  // point at infinity
  G1Point(Fp x, Fp y) : x_(std::move(x)), y_(std::move(y)), infinity_(false) {}

  static G1Point Infinity() { return G1Point(); }

  bool is_infinity() const { return infinity_; }
  const Fp& x() const { return x_; }
  const Fp& y() const { return y_; }

  bool operator==(const G1Point& o) const;

  bool IsOnCurve() const;

  G1Point Neg() const;
  G1Point Add(const G1Point& o) const;
  G1Point Double() const;
  G1Point ScalarMul(const BigInt& k) const;

  // Fixed-width serialization: flag byte || x || y (flag 0 = infinity).
  Bytes ToBytes(const FpField* f) const;
  static G1Point FromBytes(const FpField* f, ByteSpan bytes);
  static std::size_t SerializedSize(const FpField* f) {
    return 1 + 2 * f->element_bytes();
  }

 private:
  Fp x_, y_;
  bool infinity_;
};

// A point of E in Jacobian coordinates (X, Y, Z) ↦ (X/Z², Y/Z³), so doubling
// and mixed addition need no field inversion. G1Point::ScalarMul, the
// fixed-base tables and the pairing's Miller-loop preparation share the two
// steps below.
struct JacobianPoint {
  Fp x, y, z;
  bool infinity = true;

  static JacobianPoint FromAffine(const G1Point& p);
  G1Point ToAffine() const;  // one field inversion
};

// Affine forms of many points for one field inversion (Montgomery's
// trick) plus three multiplications per point.
std::vector<G1Point> BatchToAffine(std::span<const JacobianPoint> points);

// One Miller-loop line, as coefficients: its value at the distorted point
// φ(Q) = (−x_Q, i·y_Q) is (a·x_Q + b) + i·(c·y_Q). The coefficients depend
// only on the loop's first argument, so a fixed point's lines are computed
// once (TypeAPairing::Prepare) and each pairing then costs two F_p
// multiplications per line.
struct MillerLine {
  Fp a, b, c;

  // The constant line 1 (a = c = 0, b = 1): vertical lines and the V = P
  // chord, whose F_p values the final exponentiation removes.
  static MillerLine One(const FpField* f) {
    return {Fp::Zero(f), Fp::One(f), Fp::Zero(f)};
  }
  Fp2 Evaluate(const G1Point& q) const {
    return Fp2(a * q.x() + b, c * q.y());
  }
};

// When `line` is set, each step also writes the coefficients of the line it
// used — the tangent at V, or the chord through V and P — scaled by a
// nonzero F_p factor that a pairing's final exponentiation removes. A
// vertical line (2V or V + P at infinity) and the V = P case of the
// addition leave *line as the caller preset it (MillerLine::One).
JacobianPoint JacobianDouble(const JacobianPoint& v,
                             MillerLine* line = nullptr);
// V + P for affine P ≠ infinity.
JacobianPoint JacobianAddAffine(const JacobianPoint& v, const G1Point& p,
                                MillerLine* line = nullptr);

// Deterministically hashes arbitrary bytes onto the order-r subgroup:
// try-and-increment x candidates, then clear the cofactor.
G1Point HashToG1(const FpField* field, const BigInt& cofactor,
                 ByteSpan data);

}  // namespace reed::pairing
