#include "pairing/pairing.h"

#include <algorithm>

#include "bigint/prime.h"
#include "util/secure.h"

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

G1Prepared::~G1Prepared() {
  SecureZero(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(lines_.data()),
      lines_.size() * sizeof(MillerLine)));
}

G1Prepared TypeAPairing::Prepare(const G1Point& p) const {
  G1Prepared out;
  out.point_ = p;
  if (p.is_infinity()) return out;
  const FpField* f = field_.get();
  const BigInt& r = params_.r;
  JacobianPoint v = JacobianPoint::FromAffine(p);
  for (std::size_t i = r.BitLength() - 1; i-- > 0;) {
    // Once V reaches infinity (vertical tangent or chord) every later line
    // would be vertical too: F_p values that the final exponentiation
    // kills, so the lines stop and evaluation only squares from here.
    if (v.infinity) break;
    MillerLine line = MillerLine::One(f);
    v = JacobianDouble(v, &line);
    out.lines_.push_back(line);
    if (r.Bit(i)) {
      // An addition slot is always filled, so evaluation can follow r's
      // bits; after a vertical tangent it holds the constant 1.
      line = MillerLine::One(f);
      if (!v.infinity) v = JacobianAddAffine(v, p, &line);
      out.lines_.push_back(line);
    }
  }
  return out;
}

Fp2 TypeAPairing::MillerLoop(std::span<const LoopTerm> terms) const {
  Fp2 result = Fp2::One(field_.get());
  // Every term consumes its lines in the same pattern (one per step, two
  // where r has a one bit) until its lines end, so one cursor serves all.
  std::size_t longest = 0;
  for (const LoopTerm& t : terms) {
    if (!t.q->is_infinity()) longest = std::max(longest, t.p->lines_.size());
  }
  if (longest == 0) return result;
  const BigInt& r = params_.r;
  std::size_t next = 0;
  for (std::size_t i = r.BitLength() - 1; i-- > 0;) {
    result = result.Square();
    if (next == longest) continue;
    const bool add = r.Bit(i);
    for (const LoopTerm& t : terms) {
      const std::vector<MillerLine>& lines = t.p->lines_;
      if (next >= lines.size() || t.q->is_infinity()) continue;
      result = result * lines[next].Evaluate(*t.q);
      if (add) result = result * lines[next + 1].Evaluate(*t.q);
    }
    next += add ? 2 : 1;
  }
  return result;
}

Fp2 TypeAPairing::MillerLoop(const G1Prepared& p, const G1Point& q) const {
  const LoopTerm term{&p, &q};
  return MillerLoop(std::span<const LoopTerm>(&term, 1));
}

Fp2 TypeAPairing::MillerLoop(const G1Point& p, const G1Point& q) const {
  return MillerLoop(Prepare(p), q);
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
