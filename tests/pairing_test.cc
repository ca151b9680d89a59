// Pairing substrate tests: field tower algebra, curve group laws,
// hash-to-group, and the bilinearity/non-degeneracy of the Tate pairing.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bigint/prime.h"
#include "crypto/random.h"
#include "oracles/affine_pairing.h"
#include "oracles/projective_pairing.h"
#include "pairing/fixed_base.h"
#include "pairing/pairing.h"

namespace reed::pairing {
namespace {

using crypto::DeterministicRng;

const TypeAPairing& SharedPairing() {
  static TypeAPairing pairing(TypeAParams::Default());
  return pairing;
}

// TypeAParams::Generate(80, 256, DeterministicRng(2)): a 4-limb field, so
// the fixed 8-limb Fp runs with unused high limbs.
const TypeAPairing& SmallPairing() {
  static TypeAPairing pairing([] {
    DeterministicRng rng(2);
    return TypeAParams::Generate(80, 256, rng);
  }());
  return pairing;
}

TEST(TypeAParamsTest, DefaultParametersAreConsistent) {
  TypeAParams params = TypeAParams::Default();
  EXPECT_EQ(params.p.BitLength(), 512u);
  EXPECT_EQ(params.r.BitLength(), 160u);
  EXPECT_EQ(params.p.ModLimb(4), 3u);
  EXPECT_EQ(params.cofactor * params.r, params.p + BigInt(1));
  DeterministicRng rng(1);
  EXPECT_TRUE(bigint::IsProbablePrime(params.p, rng));
  EXPECT_TRUE(bigint::IsProbablePrime(params.r, rng));
}

TEST(TypeAParamsTest, GenerateProducesValidSmallParams) {
  DeterministicRng rng(2);
  TypeAParams params = TypeAParams::Generate(80, 256, rng);
  EXPECT_EQ(params.p.BitLength(), 256u);
  EXPECT_EQ(params.r.BitLength(), 80u);
  EXPECT_EQ(params.p.ModLimb(4), 3u);
  EXPECT_EQ(params.cofactor * params.r, params.p + BigInt(1));
}

// --------------------------- Fp / Fp2 ---------------------------

TEST(FpTest, FieldAxiomsRandomized) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(3);
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::Random(f, rng);
    Fp b = Fp::Random(f, rng);
    Fp c = Fp::Random(f, rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, Fp::Zero(f));
    EXPECT_EQ(a + a.Neg(), Fp::Zero(f));
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp::One(f));
    }
  }
}

TEST(FpTest, MatchesBigIntReference) {
  // The fixed-width limb arithmetic against plain BigInt modular arithmetic,
  // on random values and the edges 0, 1, p − 1, in a full-width (8-limb)
  // and a half-width (4-limb) field.
  for (const TypeAPairing* e : {&SharedPairing(), &SmallPairing()}) {
    const FpField* f = e->field();
    const BigInt& p = f->p();
    DeterministicRng rng(13);
    std::vector<BigInt> values = {BigInt(0), BigInt(1), p - BigInt(1)};
    for (int i = 0; i < 6; ++i) values.push_back(BigInt::Random(rng, p));
    for (const BigInt& x : values) {
      Fp fx = Fp::FromBigInt(f, x);
      EXPECT_EQ(fx.ToBigInt(), x);
      EXPECT_EQ(fx.Neg().ToBigInt(), BigInt::SubMod(BigInt(0), x, p));
      if (!x.IsZero()) {
        EXPECT_EQ(fx.Inverse().ToBigInt(), BigInt::InverseMod(x, p));
      }
      for (const BigInt& y : values) {
        Fp fy = Fp::FromBigInt(f, y);
        EXPECT_EQ((fx + fy).ToBigInt(), BigInt::AddMod(x, y, p));
        EXPECT_EQ((fx - fy).ToBigInt(), BigInt::SubMod(x, y, p));
        EXPECT_EQ((fx * fy).ToBigInt(), BigInt::MulMod(x, y, p));
      }
    }
  }
}

TEST(FpTest, FieldRejectsPrimesWiderThanFixedWidth) {
  // Fp holds kFpMaxLimbs = 8 limbs, so p may have at most 512 bits.
  BigInt m521 = (BigInt(1) << 521) - BigInt(1);  // Mersenne prime, ≡ 3 mod 4
  EXPECT_THROW(FpField field(m521), Error);
  BigInt p513 = (BigInt(1) << 512) + BigInt(3);
  EXPECT_THROW(FpField field(p513), Error);
  EXPECT_NO_THROW(FpField field(TypeAParams::Default().p));
  EXPECT_EQ(TypeAParams::Default().p.BitLength(), 64 * kFpMaxLimbs);
}

TEST(FpTest, BytesRoundTrip) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(4);
  Fp a = Fp::Random(f, rng);
  EXPECT_EQ(Fp::FromBytes(f, a.ToBytes()), a);
  EXPECT_EQ(a.ToBytes().size(), f->element_bytes());
  Bytes bad(f->element_bytes() - 1, 0);
  EXPECT_THROW(Fp::FromBytes(f, bad), Error);
}

TEST(FpTest, SqrtOfSquareRecoversRoot) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(5);
  int qr_count = 0;
  for (int i = 0; i < 20; ++i) {
    Fp a = Fp::Random(f, rng);
    Fp sq = a.Square();
    Fp root;
    ASSERT_TRUE(sq.Sqrt(&root));
    EXPECT_EQ(root.Square(), sq);
    Fp maybe;
    if (Fp::Random(f, rng).Sqrt(&maybe)) ++qr_count;
  }
  // About half of random elements are quadratic residues.
  EXPECT_GT(qr_count, 2);
  EXPECT_LT(qr_count, 18);
}

TEST(FpTest, PowMatchesRepeatedMultiplication) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(6);
  Fp a = Fp::Random(f, rng);
  Fp acc = Fp::One(f);
  for (int i = 0; i < 13; ++i) acc = acc * a;
  EXPECT_EQ(a.Pow(BigInt(13)), acc);
  EXPECT_EQ(a.Pow(BigInt(0)), Fp::One(f));
}

TEST(Fp2Test, FieldAxiomsRandomized) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(7);
  for (int i = 0; i < 15; ++i) {
    Fp2 a(Fp::Random(f, rng), Fp::Random(f, rng));
    Fp2 b(Fp::Random(f, rng), Fp::Random(f, rng));
    Fp2 c(Fp::Random(f, rng), Fp::Random(f, rng));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    EXPECT_EQ(a * a.Inverse(), Fp2::One(f));
  }
}

TEST(Fp2Test, ConjugateIsFrobenius) {
  // In F_p² with p ≡ 3 mod 4, x^p = conj(x).
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(8);
  Fp2 x(Fp::Random(f, rng), Fp::Random(f, rng));
  EXPECT_EQ(x.Pow(SharedPairing().params().p), x.Conjugate());
}

TEST(Fp2Test, BytesRoundTrip) {
  const FpField* f = SharedPairing().field();
  DeterministicRng rng(9);
  Fp2 x(Fp::Random(f, rng), Fp::Random(f, rng));
  EXPECT_EQ(Fp2::FromBytes(f, x.ToBytes()), x);
}

// --------------------------- curve group ---------------------------

TEST(G1Test, GeneratorIsOnCurveWithOrderR) {
  const TypeAPairing& e = SharedPairing();
  const G1Point& g = e.generator();
  EXPECT_FALSE(g.is_infinity());
  EXPECT_TRUE(g.IsOnCurve());
  EXPECT_TRUE(g.ScalarMul(e.group_order()).is_infinity());
}

TEST(G1Test, GroupLaws) {
  const TypeAPairing& e = SharedPairing();
  DeterministicRng rng(10);
  G1Point p = e.HashToGroup(ToBytes("P"));
  G1Point q = e.HashToGroup(ToBytes("Q"));
  EXPECT_EQ(p.Add(q), q.Add(p));
  EXPECT_EQ(p.Add(G1Point::Infinity()), p);
  EXPECT_TRUE(p.Add(p.Neg()).is_infinity());
  EXPECT_EQ(p.Double(), p.Add(p));
  EXPECT_TRUE(p.Add(q).IsOnCurve());
  // (P + Q) + P == P·2 + Q
  EXPECT_EQ(p.Add(q).Add(p), p.Double().Add(q));
}

TEST(G1Test, ScalarMulDistributes) {
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("scalar-test"));
  BigInt a(17), b(31);
  EXPECT_EQ(p.ScalarMul(a).Add(p.ScalarMul(b)), p.ScalarMul(a + b));
  EXPECT_EQ(p.ScalarMul(a).ScalarMul(b), p.ScalarMul(a * b));
  EXPECT_TRUE(p.ScalarMul(BigInt(0)).is_infinity());
}

TEST(G1Test, HashToGroupIsDeterministicAndInSubgroup) {
  const TypeAPairing& e = SharedPairing();
  G1Point p1 = e.HashToGroup(ToBytes("attribute:alice"));
  G1Point p2 = e.HashToGroup(ToBytes("attribute:alice"));
  G1Point p3 = e.HashToGroup(ToBytes("attribute:bob"));
  EXPECT_EQ(p1, p2);
  EXPECT_FALSE(p1 == p3);
  EXPECT_TRUE(p1.ScalarMul(e.group_order()).is_infinity());
}

TEST(G1Test, SerializationRoundTrip) {
  const TypeAPairing& e = SharedPairing();
  const FpField* f = e.field();
  G1Point p = e.HashToGroup(ToBytes("serialize"));
  EXPECT_EQ(G1Point::FromBytes(f, p.ToBytes(f)), p);
  EXPECT_EQ(G1Point::FromBytes(f, G1Point::Infinity().ToBytes(f)),
            G1Point::Infinity());
  // Corrupt y: point no longer on curve.
  Bytes bytes = p.ToBytes(f);
  bytes[bytes.size() - 1] ^= 1;
  EXPECT_THROW(G1Point::FromBytes(f, bytes), Error);
}

// --------------------------- pairing ---------------------------

TEST(PairingTest, NonDegenerate) {
  const TypeAPairing& e = SharedPairing();
  Fp2 val = e.Pair(e.generator(), e.generator());
  EXPECT_FALSE(val.IsOne());
  // Output has order dividing r.
  EXPECT_TRUE(val.Pow(e.group_order()).IsOne());
}

TEST(PairingTest, Bilinearity) {
  const TypeAPairing& e = SharedPairing();
  DeterministicRng rng(11);
  G1Point p = e.HashToGroup(ToBytes("bilinear-P"));
  G1Point q = e.HashToGroup(ToBytes("bilinear-Q"));
  BigInt a = e.RandomScalar(rng);
  BigInt b = e.RandomScalar(rng);

  Fp2 base = e.Pair(p, q);
  // e(aP, Q) == e(P, Q)^a
  EXPECT_EQ(e.Pair(p.ScalarMul(a), q), base.Pow(a));
  // e(P, bQ) == e(P, Q)^b
  EXPECT_EQ(e.Pair(p, q.ScalarMul(b)), base.Pow(b));
  // e(aP, bQ) == e(P, Q)^(ab)
  EXPECT_EQ(e.Pair(p.ScalarMul(a), q.ScalarMul(b)),
            base.Pow(BigInt::MulMod(a, b, e.group_order())));
}

TEST(PairingTest, Symmetry) {
  // Type-A pairings built on a distortion map are symmetric.
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("sym-P"));
  G1Point q = e.HashToGroup(ToBytes("sym-Q"));
  EXPECT_EQ(e.Pair(p, q), e.Pair(q, p));
}

TEST(PairingTest, InfinityPairsToOne) {
  const TypeAPairing& e = SharedPairing();
  G1Point p = e.HashToGroup(ToBytes("inf-test"));
  EXPECT_TRUE(e.Pair(p, G1Point::Infinity()).IsOne());
  EXPECT_TRUE(e.Pair(G1Point::Infinity(), p).IsOne());
}

TEST(PairingTest, MultiplicativeInFirstArgument) {
  const TypeAPairing& e = SharedPairing();
  G1Point p1 = e.HashToGroup(ToBytes("m1"));
  G1Point p2 = e.HashToGroup(ToBytes("m2"));
  G1Point q = e.HashToGroup(ToBytes("mq"));
  EXPECT_EQ(e.Pair(p1.Add(p2), q), e.Pair(p1, q) * e.Pair(p2, q));
}

// ------------------- known answers and the affine oracle -------------------

// Pinned from the affine Miller loop before the projective rewrite, over
// TypeAParams::Default(): Pair(g, g), and Pair(a·g, b·g) for a, b the first
// two RandomScalar draws of DeterministicRng(7).
constexpr const char* kPairGeneratorHex =
    "2ce1ea65bced6f886d34cd8b573435f74b386fb9817a093779d9f99dd0abeda6"
    "5b039eb45892b9a40da1ee5da7467c8dedffa2291b5b7c610fcdec4f95a67f88"
    "1329296b880815189e08f5f60b2bdfd3e10065b17e079b8a9a16cdeb4edef1ef"
    "fdac2053aa02ea3d2d009984539a61faa69929e0a9e317dacec2c2f3a46be8bd";

constexpr const char* kPairSeededHex =
    "243f2eec4f2587a70211e0df9699e376342087e626e6a46ded4e55cb25578c53"
    "0f30222ab25e409612559e9e55906bbe62cc7f6e9c66a02d37f21f854590ba8d"
    "13025d412d106db1b5aa0120d3b2ad0a51c6651487f1484ca7fc2e7a1dfd2a89"
    "c4bef09013506a8096d2992ad1dc468af0f6465c87fbccbf5496f9946b003000";

TEST(PairingTest, KnownAnswersDefaultParams) {
  const TypeAPairing& e = SharedPairing();
  const G1Point& g = e.generator();
  EXPECT_EQ(HexEncode(e.Pair(g, g).ToBytes()), kPairGeneratorHex);
  DeterministicRng rng(7);
  BigInt a = e.RandomScalar(rng);
  BigInt b = e.RandomScalar(rng);
  EXPECT_EQ(HexEncode(e.Pair(g.ScalarMul(a), g.ScalarMul(b)).ToBytes()),
            kPairSeededHex);
}

// Pair must equal the affine oracle byte for byte — not merely agree up to
// bilinearity — on seeded random pairs and on the degenerate inputs: the
// order-2 point (0, 0) and the point at infinity, on either side.
void ExpectMatchesAffineOracle(const TypeAPairing& e, std::uint64_t seed) {
  const FpField* f = e.field();
  const G1Point& g = e.generator();
  DeterministicRng rng(seed);
  G1Point two_torsion(Fp::Zero(f), Fp::Zero(f));
  ASSERT_TRUE(two_torsion.IsOnCurve());
  G1Point inf = G1Point::Infinity();

  std::vector<std::pair<G1Point, G1Point>> cases;
  for (int i = 0; i < 8; ++i) {
    cases.emplace_back(g.ScalarMul(e.RandomScalar(rng)),
                       g.ScalarMul(e.RandomScalar(rng)));
  }
  G1Point p = e.HashToGroup(ToBytes("oracle-P"));
  cases.emplace_back(p, p);
  cases.emplace_back(p, p.Neg());
  cases.emplace_back(two_torsion, p);
  cases.emplace_back(p, two_torsion);
  cases.emplace_back(two_torsion, two_torsion);
  cases.emplace_back(inf, p);
  cases.emplace_back(p, inf);
  cases.emplace_back(inf, inf);
  for (const auto& [lhs, rhs] : cases) {
    EXPECT_EQ(HexEncode(e.Pair(lhs, rhs).ToBytes()),
              HexEncode(oracle::AffinePair(e, lhs, rhs).ToBytes()));
  }
}

TEST(PairingTest, MatchesAffineOracleDefaultParams) {
  ExpectMatchesAffineOracle(SharedPairing(), 21);
}

TEST(PairingTest, MatchesAffineOracleGenerated256BitParams) {
  ExpectMatchesAffineOracle(SmallPairing(), 22);
}

TEST(PairingTest, FinalExponentiationCombinesLoopValues) {
  // The identity CP-ABE decryption relies on: one final exponentiation of a
  // product of raw loop values, with (−P, Q) standing for a quotient.
  const TypeAPairing& e = SharedPairing();
  G1Point p1 = e.HashToGroup(ToBytes("fe-p1"));
  G1Point p2 = e.HashToGroup(ToBytes("fe-p2"));
  G1Point q = e.HashToGroup(ToBytes("fe-q"));
  BigInt k(12345);
  Fp2 combined = e.FinalExponentiation(
      e.MillerLoop(p1, q).Pow(k) * e.MillerLoop(p2.Neg(), q));
  EXPECT_EQ(combined, e.Pair(p1, q).Pow(k) * e.Pair(p2, q).Inverse());
}

// ---------------- prepared lines against the projective oracle ----------------

// The prepared loop (Prepare once, evaluate per Q) must reproduce the loop
// that evaluated each line as it walked V: raw loop values bit for bit, on
// the same seeded and degenerate pairs as the affine comparison, with one
// preparation reused across every Q.
void ExpectPreparedMatchesProjectiveOracle(const TypeAPairing& e,
                                           std::uint64_t seed) {
  const FpField* f = e.field();
  const G1Point& g = e.generator();
  DeterministicRng rng(seed);
  std::vector<G1Point> points = {G1Point(Fp::Zero(f), Fp::Zero(f)),
                                 G1Point::Infinity(),
                                 e.HashToGroup(ToBytes("prepared-P"))};
  points.push_back(points.back().Neg());
  for (int i = 0; i < 6; ++i) points.push_back(g.ScalarMul(e.RandomScalar(rng)));
  for (const G1Point& p : points) {
    const G1Prepared prepared = e.Prepare(p);
    EXPECT_EQ(prepared.point(), p);
    for (const G1Point& q : points) {
      const Fp2 raw = e.MillerLoop(prepared, q);
      EXPECT_EQ(HexEncode(raw.ToBytes()),
                HexEncode(oracle::ProjectiveMillerLoop(e, p, q).ToBytes()));
      EXPECT_EQ(e.MillerLoop(p, q), raw);
      EXPECT_EQ(e.Pair(p, q), oracle::ProjectivePair(e, p, q));
    }
  }
}

TEST(PairingTest, PreparedLoopMatchesProjectiveOracleDefaultParams) {
  ExpectPreparedMatchesProjectiveOracle(SharedPairing(), 41);
}

TEST(PairingTest, PreparedLoopMatchesProjectiveOracleGenerated256BitParams) {
  ExpectPreparedMatchesProjectiveOracle(SmallPairing(), 42);
}

TEST(PairingTest, MultiTermLoopIsTheProductOfLoops) {
  // One loop over several prepared terms (shared squarings) equals the
  // product of the separate loops bit for bit, including terms that pair
  // to 1 (infinity) and a non-subgroup point whose lines end early.
  const TypeAPairing& e = SharedPairing();
  const FpField* f = e.field();
  const G1Point& g = e.generator();
  DeterministicRng rng(44);
  std::vector<G1Point> firsts = {g.ScalarMul(e.RandomScalar(rng)),
                                 G1Point(Fp::Zero(f), Fp::Zero(f)),
                                 g.ScalarMul(e.RandomScalar(rng)),
                                 G1Point::Infinity()};
  std::vector<G1Point> seconds = {g.ScalarMul(e.RandomScalar(rng)),
                                  g.ScalarMul(e.RandomScalar(rng)),
                                  G1Point::Infinity(),
                                  g.ScalarMul(e.RandomScalar(rng))};
  std::vector<G1Prepared> prepared;
  for (const G1Point& p : firsts) prepared.push_back(e.Prepare(p));
  std::vector<TypeAPairing::LoopTerm> terms;
  Fp2 product = Fp2::One(f);
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    terms.push_back({&prepared[i], &seconds[i]});
    product = product * e.MillerLoop(firsts[i], seconds[i]);
    EXPECT_EQ(e.MillerLoop(std::span<const TypeAPairing::LoopTerm>(terms)),
              product);
  }
  EXPECT_EQ(e.MillerLoop(std::span<const TypeAPairing::LoopTerm>()),
            Fp2::One(f));
}

TEST(PairingTest, SymmetricOnSeededPairs) {
  // CP-ABE evaluates e(D, −C) in place of e(−C, D); the raw loop values
  // differ, the pairings may not.
  const TypeAPairing& e = SharedPairing();
  const G1Point& g = e.generator();
  DeterministicRng rng(43);
  for (int i = 0; i < 6; ++i) {
    G1Point p = g.ScalarMul(e.RandomScalar(rng));
    G1Point q = g.ScalarMul(e.RandomScalar(rng));
    EXPECT_EQ(e.Pair(p, q), e.Pair(q, p));
    EXPECT_EQ(e.FinalExponentiation(e.MillerLoop(e.Prepare(p), q.Neg())),
              e.FinalExponentiation(e.MillerLoop(q.Neg(), p)));
  }
}

// ------------------------- fixed-base tables -------------------------

// Scalars for the fixed-base comparisons: 0, 1, 2, every 16^k up to the
// top window, r − 1, r, r + 1, and seeded random values below r.
std::vector<BigInt> FixedBaseScalars(const TypeAPairing& e,
                                     std::uint64_t seed) {
  const BigInt& r = e.group_order();
  std::vector<BigInt> scalars = {BigInt(0), BigInt(1), BigInt(2),
                                 r - BigInt(1), r, r + BigInt(1)};
  for (std::size_t bit = 4; bit < r.BitLength(); bit += 4) {
    scalars.push_back(BigInt(1) << bit);
    scalars.push_back((BigInt(1) << bit) - BigInt(1));
  }
  DeterministicRng rng(seed);
  for (int i = 0; i < 12; ++i) scalars.push_back(BigInt::Random(rng, r));
  return scalars;
}

TEST(FixedBaseTest, G1MatchesScalarMul) {
  for (const TypeAPairing* e : {&SharedPairing(), &SmallPairing()}) {
    const G1Point base = e->HashToGroup(ToBytes("fixed-base"));
    const G1FixedBase table(base, e->group_order());
    const G1FixedBase row = G1FixedBase::SingleRow(base, e->group_order());
    EXPECT_EQ(table.base(), base);
    for (const BigInt& k : FixedBaseScalars(*e, 51)) {
      const G1Point want = base.ScalarMul(k);
      EXPECT_EQ(table.Mul(k), want) << k.ToHex();
      EXPECT_EQ(row.Mul(k), want) << k.ToHex();
    }
  }
}

TEST(FixedBaseTest, GtMatchesPow) {
  const TypeAPairing& e = SharedPairing();
  const Fp2 base = e.Pair(e.generator(), e.HashToGroup(ToBytes("gt-base")));
  const GtFixedBase table(base, e.group_order());
  for (const BigInt& k : FixedBaseScalars(e, 52)) {
    EXPECT_EQ(table.Pow(k), base.Pow(k)) << k.ToHex();
  }
}

TEST(FixedBaseTest, InfinityBaseGivesInfinity) {
  const TypeAPairing& e = SharedPairing();
  const G1FixedBase table(G1Point::Infinity(), e.group_order());
  EXPECT_TRUE(table.Mul(BigInt(12345)).is_infinity());
  EXPECT_TRUE(G1FixedBase::SingleRow(G1Point::Infinity(), e.group_order())
                  .Mul(BigInt(12345))
                  .is_infinity());
}

TEST(G1Test, BatchToAffineMatchesPerPointInversion) {
  const TypeAPairing& e = SharedPairing();
  const G1Point& g = e.generator();
  DeterministicRng rng(53);
  std::vector<JacobianPoint> points = {JacobianPoint{}};
  JacobianPoint v = JacobianPoint::FromAffine(g);
  for (int i = 0; i < 5; ++i) {
    v = JacobianDouble(JacobianAddAffine(v, g.ScalarMul(e.RandomScalar(rng))));
    points.push_back(v);
    if (i == 2) points.push_back(JacobianPoint{});
  }
  std::vector<G1Point> affine = BatchToAffine(points);
  ASSERT_EQ(affine.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(affine[i], points[i].ToAffine());
  }
  EXPECT_TRUE(BatchToAffine(std::vector<JacobianPoint>(3)).at(1).is_infinity());
}

}  // namespace
}  // namespace reed::pairing
