#include "pairing/pairing.h"

#include "bigint/prime.h"

namespace reed::pairing {

TypeAParams TypeAParams::Generate(std::size_t rbits, std::size_t pbits,
                                  crypto::Rng& rng) {
  if (pbits <= rbits + 4) {
    throw Error("TypeAParams::Generate: pbits must exceed rbits");
  }
  BigInt r = bigint::GeneratePrime(rbits, rng);
  std::size_t hbits = pbits - rbits;
  for (;;) {
    // h divisible by 4 forces p = h*r - 1 ≡ 3 (mod 4).
    BigInt h0 = BigInt::RandomBits(rng, hbits - 2);
    BigInt top = BigInt(1) << (hbits - 3);
    if (h0 < top) h0 += top;
    BigInt h = h0 << 2;
    BigInt p = h * r - BigInt(1);
    if (p.BitLength() != pbits) continue;
    if (bigint::IsProbablePrime(p, rng)) {
      return TypeAParams{p, r, h};
    }
  }
}

TypeAParams TypeAParams::Default() {
  // Generated once with TypeAParams::Generate(160, 512, DeterministicRng(2016))
  // and pinned here so benchmarks and tests share a stable group.
  static const char* kP =
      "823e5729f8509ad2c440c05d15602d97800ffc6468c49b14e5f634a9f3ab3cab"
      "33d3426b83ee5ada87dd46e3b5e960842a784a17c98a2ee897b71a9e134df55b";
  static const char* kR = "98013696af9eed4c6400331aef9d92f1fa854a7b";
  TypeAParams params;
  params.p = BigInt::FromHex(kP);
  params.r = BigInt::FromHex(kR);
  params.cofactor = (params.p + BigInt(1)) / params.r;
  return params;
}

TypeAPairing::TypeAPairing(TypeAParams params)
    : params_(std::move(params)),
      field_(std::make_unique<FpField>(params_.p)) {
  if ((params_.cofactor * params_.r) != params_.p + BigInt(1)) {
    throw Error("TypeAPairing: cofactor * r must equal p + 1");
  }
  generator_ = HashToG1(field_.get(), params_.cofactor,
                        ToBytes("reed/pairing-generator"));
}

G1Point TypeAPairing::HashToGroup(ByteSpan data) const {
  return HashToG1(field_.get(), params_.cofactor, data);
}

BigInt TypeAPairing::RandomScalar(crypto::Rng& rng) const {
  for (;;) {
    BigInt s = BigInt::Random(rng, params_.r);
    if (!s.IsZero()) return s;
  }
}

Fp2 TypeAPairing::MillerLoop(const G1Point& p, const G1Point& q) const {
  Fp2 result = Fp2::One(field_.get());
  if (p.is_infinity() || q.is_infinity()) return result;

  JacobianPoint v = JacobianPoint::FromAffine(p);
  Fp2 line;
  const BigInt& r = params_.r;
  for (std::size_t i = r.BitLength() - 1; i-- > 0;) {
    result = result.Square();
    // Once V reaches infinity (vertical tangent or chord) every later line
    // would be vertical too: F_p values that the final exponentiation kills.
    if (v.infinity) continue;
    v = JacobianDouble(v, &q, &line);
    result = result * line;
    if (r.Bit(i) && !v.infinity) {
      v = JacobianAddAffine(v, p, &q, &line);
      result = result * line;
    }
  }
  return result;
}

Fp2 TypeAPairing::FinalExponentiation(const Fp2& f) const {
  // (p² − 1)/r = (p − 1) · cofactor. f^p is the Frobenius = conjugate in
  // F_p², so f^(p−1) = conj(f) · f^{−1}; one |h|-bit pow finishes the job.
  Fp2 g = f.Conjugate() * f.Inverse();
  return g.Pow(params_.cofactor);
}

Fp2 TypeAPairing::Pair(const G1Point& p, const G1Point& q) const {
  Fp2 f = MillerLoop(p, q);
  return FinalExponentiation(f);
}

}  // namespace reed::pairing
