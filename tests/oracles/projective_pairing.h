// Differential oracle: the projective Miller loop that TypeAPairing used
// before the loop was split into preparation and evaluation. It walks V in
// Jacobian coordinates and evaluates each line at φ(Q) as it goes, so it
// recomputes every line for every pairing. Kept only in tests/, where the
// prepared loop must match it bit for bit, raw loop values included.
#pragma once

#include "pairing/pairing.h"

namespace reed::pairing::oracle {

// 2V, with the tangent at V evaluated at φ(Q) and scaled by 2YZ³.
inline JacobianPoint ProjectiveDouble(const JacobianPoint& v, const G1Point& q,
                                      Fp2* line) {
  *line = Fp2::One(q.x().field());
  if (v.infinity || v.y.IsZero()) return {};  // vertical tangent
  Fp x2 = v.x.Square();
  Fp z2 = v.z.Square();
  Fp m = x2 + x2 + x2 + z2.Square();
  Fp two_y2 = v.y.Square();
  two_y2 = two_y2 + two_y2;
  Fp s = v.x * two_y2;
  s = s + s;
  Fp x3 = m.Square() - (s + s);
  Fp four_y4 = two_y2.Square();
  Fp y3 = m * (s - x3) - (four_y4 + four_y4);
  Fp z3 = (v.y + v.y) * v.z;
  *line = Fp2(m * (z2 * q.x() + v.x) - two_y2, z3 * z2 * q.y());
  return {x3, y3, z3, false};
}

// V + P, with the chord through V and P evaluated at φ(Q), scaled by Z·H.
inline JacobianPoint ProjectiveAdd(const JacobianPoint& v, const G1Point& p,
                                   const G1Point& q, Fp2* line) {
  *line = Fp2::One(q.x().field());
  if (v.infinity) return JacobianPoint::FromAffine(p);
  Fp z2 = v.z.Square();
  Fp h = p.x() * z2 - v.x;
  Fp r = p.y() * z2 * v.z - v.y;
  if (h.IsZero()) {
    if (r.IsZero()) return JacobianDouble(v);  // V = P: line 1
    return {};                                 // V = −P: vertical chord
  }
  Fp z3 = v.z * h;
  *line = Fp2(r * (q.x() + p.x()) - p.y() * z3, q.y() * z3);
  Fp h2 = h.Square();
  Fp h3 = h2 * h;
  Fp u1h2 = v.x * h2;
  Fp x3 = r.Square() - h3 - (u1h2 + u1h2);
  Fp y3 = r * (u1h2 - x3) - v.y * h3;
  return {x3, y3, z3, false};
}

inline Fp2 ProjectiveMillerLoop(const TypeAPairing& e, const G1Point& p,
                                const G1Point& q) {
  Fp2 result = Fp2::One(e.field());
  if (p.is_infinity() || q.is_infinity()) return result;
  JacobianPoint v = JacobianPoint::FromAffine(p);
  Fp2 line;
  const BigInt& r = e.group_order();
  for (std::size_t i = r.BitLength() - 1; i-- > 0;) {
    result = result.Square();
    if (v.infinity) continue;
    v = ProjectiveDouble(v, q, &line);
    result = result * line;
    if (r.Bit(i) && !v.infinity) {
      v = ProjectiveAdd(v, p, q, &line);
      result = result * line;
    }
  }
  return result;
}

inline Fp2 ProjectivePair(const TypeAPairing& e, const G1Point& p,
                          const G1Point& q) {
  return e.FinalExponentiation(ProjectiveMillerLoop(e, p, q));
}

}  // namespace reed::pairing::oracle
