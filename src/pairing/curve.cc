#include "pairing/curve.h"

#include "crypto/sha256.h"

namespace reed::pairing {

bool G1Point::operator==(const G1Point& o) const {
  if (infinity_ || o.infinity_) return infinity_ == o.infinity_;
  return x_ == o.x_ && y_ == o.y_;
}

bool G1Point::IsOnCurve() const {
  if (infinity_) return true;
  // y² = x³ + x
  return y_.Square() == x_.Square() * x_ + x_;
}

G1Point G1Point::Neg() const {
  if (infinity_) return *this;
  return G1Point(x_, y_.Neg());
}

G1Point G1Point::Double() const {
  if (infinity_) return *this;
  if (y_.IsZero()) return Infinity();  // order-2 point
  const FpField* f = x_.field();
  // λ = (3x² + 1) / 2y
  Fp three_x2 = Fp::FromU64(f, 3) * x_.Square();
  Fp lambda = (three_x2 + Fp::One(f)) * (y_ + y_).Inverse();
  Fp x3 = lambda.Square() - x_ - x_;
  Fp y3 = lambda * (x_ - x3) - y_;
  return G1Point(std::move(x3), std::move(y3));
}

G1Point G1Point::Add(const G1Point& o) const {
  if (infinity_) return o;
  if (o.infinity_) return *this;
  if (x_ == o.x_) {
    if (y_ == o.y_) return Double();
    return Infinity();  // P + (-P)
  }
  // λ = (y2 - y1) / (x2 - x1)
  Fp lambda = (o.y_ - y_) * (o.x_ - x_).Inverse();
  Fp x3 = lambda.Square() - x_ - o.x_;
  Fp y3 = lambda * (x_ - x3) - y_;
  return G1Point(std::move(x3), std::move(y3));
}

JacobianPoint JacobianPoint::FromAffine(const G1Point& p) {
  if (p.is_infinity()) return {};
  return {p.x(), p.y(), Fp::One(p.x().field()), false};
}

G1Point JacobianPoint::ToAffine() const {
  if (infinity) return G1Point::Infinity();
  Fp zinv = z.Inverse();
  Fp zinv2 = zinv.Square();
  return G1Point(x * zinv2, y * zinv2 * zinv);
}

std::vector<G1Point> BatchToAffine(std::span<const JacobianPoint> points) {
  std::vector<G1Point> out(points.size());
  // prefix[j] = z_0 ⋯ z_j over the finite points, in order.
  std::vector<std::size_t> finite;
  std::vector<Fp> prefix;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].infinity) continue;
    prefix.push_back(finite.empty() ? points[i].z : prefix.back() * points[i].z);
    finite.push_back(i);
  }
  if (finite.empty()) return out;
  Fp inv = prefix.back().Inverse();  // (z_0 ⋯ z_j)⁻¹ for j = last
  for (std::size_t j = finite.size(); j-- > 0;) {
    const JacobianPoint& p = points[finite[j]];
    const Fp zinv = j == 0 ? inv : inv * prefix[j - 1];
    if (j != 0) inv = inv * p.z;
    const Fp zinv2 = zinv.Square();
    out[finite[j]] = G1Point(p.x * zinv2, p.y * zinv2 * zinv);
  }
  return out;
}

JacobianPoint JacobianDouble(const JacobianPoint& v, MillerLine* line) {
  if (v.infinity || v.y.IsZero()) return {};  // vertical tangent
  // Curve a = 1: M = 3X² + Z⁴, S = 4XY², 2V = (M² − 2S, M(S − X') − 8Y⁴, 2YZ).
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
  if (line != nullptr) {
    // Tangent slope λ = M / (2YZ); λ(x_Q + x) − y scaled by 2YZ³ is
    // M·Z²·x_Q + (M·X − 2Y²) + i·(2YZ³)·y_Q.
    *line = {m * z2, m * v.x - two_y2, z3 * z2};
  }
  return {x3, y3, z3, false};
}

JacobianPoint JacobianAddAffine(const JacobianPoint& v, const G1Point& p,
                                MillerLine* line) {
  if (v.infinity) return JacobianPoint::FromAffine(p);
  Fp z2 = v.z.Square();
  Fp h = p.x() * z2 - v.x;        // U2 − X with U2 = x_P Z²
  Fp r = p.y() * z2 * v.z - v.y;  // S2 − Y with S2 = y_P Z³
  if (h.IsZero()) {
    if (r.IsZero()) return JacobianDouble(v);  // V = P
    return {};                                 // V = −P: vertical chord
  }
  Fp z3 = v.z * h;
  if (line != nullptr) {
    // Chord slope λ = R / (Z·H), taken through P and scaled by Z·H:
    // R·x_Q + (R·x_P − y_P·Z·H) + i·(Z·H)·y_Q.
    *line = {r, r * p.x() - p.y() * z3, z3};
  }
  Fp h2 = h.Square();
  Fp h3 = h2 * h;
  Fp u1h2 = v.x * h2;
  Fp x3 = r.Square() - h3 - (u1h2 + u1h2);
  Fp y3 = r * (u1h2 - x3) - v.y * h3;
  return {x3, y3, z3, false};
}

G1Point G1Point::ScalarMul(const BigInt& k) const {
  if (infinity_ || k.IsZero()) return Infinity();
  JacobianPoint acc;
  for (std::size_t i = k.BitLength(); i-- > 0;) {
    acc = JacobianDouble(acc);
    if (k.Bit(i)) acc = JacobianAddAffine(acc, *this);
  }
  return acc.ToAffine();
}

Bytes G1Point::ToBytes(const FpField* f) const {
  Bytes out;
  out.reserve(SerializedSize(f));
  if (infinity_) {
    out.assign(SerializedSize(f), 0);
    return out;
  }
  out.push_back(1);
  Append(out, x_.ToBytes());
  Append(out, y_.ToBytes());
  return out;
}

G1Point G1Point::FromBytes(const FpField* f, ByteSpan bytes) {
  if (bytes.size() != SerializedSize(f)) {
    throw Error("G1Point::FromBytes: bad length");
  }
  if (bytes[0] == 0) return Infinity();
  std::size_t eb = f->element_bytes();
  G1Point pt(Fp::FromBytes(f, bytes.subspan(1, eb)),
             Fp::FromBytes(f, bytes.subspan(1 + eb, eb)));
  if (!pt.IsOnCurve()) throw Error("G1Point::FromBytes: point not on curve");
  return pt;
}

G1Point HashToG1(const FpField* field, const BigInt& cofactor, ByteSpan data) {
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes input = ToBytes("reed/hash-to-g1");
    AppendU32(input, counter);
    Append(input, data);
    // Expand to the field width so x covers all of F_p.
    Bytes expanded;
    std::uint32_t block = 0;
    while (expanded.size() < field->element_bytes()) {
      Bytes sub = input;
      AppendU32(sub, block++);
      crypto::Sha256Digest d = crypto::Sha256::Hash(sub);
      expanded.insert(expanded.end(), d.begin(), d.end());
    }
    expanded.resize(field->element_bytes());
    Fp x = Fp::FromBigInt(field, BigInt::FromBytes(expanded));

    Fp rhs = x.Square() * x + x;  // x³ + x
    Fp y;
    if (!rhs.Sqrt(&y)) continue;
    G1Point pt(x, y);
    G1Point in_subgroup = pt.ScalarMul(cofactor);
    if (in_subgroup.is_infinity()) continue;  // negligible probability
    return in_subgroup;
  }
}

}  // namespace reed::pairing
