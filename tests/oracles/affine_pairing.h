// Differential oracle: the affine Miller loop that TypeAPairing::Pair used
// before the loop moved to Jacobian coordinates. It pays two field
// inversions per doubling and per addition step, and it multiplies in the
// unscaled line values. Kept only in tests/, where the projective pairing
// must match it bit for bit.
#pragma once

#include "pairing/pairing.h"

namespace reed::pairing::oracle {

// Line through V with slope λ, evaluated at φ(Q) = (−xq, i·yq).
inline Fp2 AffineLineValue(const Fp& lambda, const Fp& xv, const Fp& yv,
                           const Fp& xq, const Fp& yq) {
  return Fp2(lambda * (xq + xv) - yv, yq);
}

inline Fp2 AffineMillerLoop(const TypeAPairing& e, const G1Point& p,
                            const G1Point& q) {
  const FpField* f = e.field();
  Fp2 result = Fp2::One(f);
  if (p.is_infinity() || q.is_infinity()) return result;

  const Fp& xq = q.x();
  const Fp& yq = q.y();
  Fp one = Fp::One(f);
  Fp three = Fp::FromU64(f, 3);

  G1Point v = p;
  const BigInt& r = e.group_order();
  for (std::size_t i = r.BitLength() - 1; i-- > 0;) {
    result = result.Square();
    if (!v.is_infinity()) {
      if (v.y().IsZero()) {
        v = G1Point::Infinity();  // vertical tangent
      } else {
        Fp lambda =
            (three * v.x().Square() + one) * (v.y() + v.y()).Inverse();
        result = result * AffineLineValue(lambda, v.x(), v.y(), xq, yq);
        v = v.Double();
      }
    }
    if (r.Bit(i) && !v.is_infinity()) {
      if (v.x() == p.x()) {
        v = v.Add(p);  // vertical chord
      } else {
        Fp lambda = (p.y() - v.y()) * (p.x() - v.x()).Inverse();
        result = result * AffineLineValue(lambda, v.x(), v.y(), xq, yq);
        v = v.Add(p);
      }
    }
  }
  return result;
}

// The final exponentiation did not change; only the loop feeding it did.
inline Fp2 AffinePair(const TypeAPairing& e, const G1Point& p,
                      const G1Point& q) {
  return e.FinalExponentiation(AffineMillerLoop(e, p, q));
}

}  // namespace reed::pairing::oracle
