// BigInt / Montgomery / primality tests: fixed vectors plus randomized
// algebraic-identity property suites.
#include <gtest/gtest.h>

#include <vector>

#include "bigint/bigint.h"
#include "bigint/prime.h"
#include "crypto/random.h"
#include "oracles/ladder_pow.h"
#include "oracles/sos_montgomery.h"

namespace reed::bigint {
namespace {

using crypto::DeterministicRng;

TEST(BigIntTest, HexRoundTrip) {
  EXPECT_EQ(BigInt::FromHex("0").ToHex(), "0");
  EXPECT_EQ(BigInt::FromHex("ff").ToHex(), "ff");
  EXPECT_EQ(BigInt::FromHex("1234567890abcdef1234567890abcdef").ToHex(),
            "1234567890abcdef1234567890abcdef");
  EXPECT_EQ(BigInt::FromHex("000123").ToHex(), "123");
  EXPECT_THROW(BigInt::FromHex("xyz"), Error);
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes be = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  BigInt v = BigInt::FromBytes(be);
  EXPECT_EQ(v.ToBytes(), be);
  EXPECT_EQ(v.ToBytesPadded(12), (Bytes{0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_THROW(v.ToBytesPadded(4), Error);
  EXPECT_EQ(BigInt().ToBytes(), Bytes{});
}

TEST(BigIntTest, ComparisonAndBitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ((BigInt(1) << 100).BitLength(), 101u);
  EXPECT_LT(BigInt(5), BigInt(6));
  EXPECT_GT(BigInt(1) << 64, BigInt(~std::uint64_t{0}));
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt max64(~std::uint64_t{0});
  BigInt sum = max64 + BigInt(1);
  EXPECT_EQ(sum.ToHex(), "10000000000000000");
  EXPECT_EQ((sum - BigInt(1)).ToHex(), "ffffffffffffffff");
}

TEST(BigIntTest, SubtractionThrowsOnNegative) {
  EXPECT_THROW(BigInt(1) - BigInt(2), Error);
}

TEST(BigIntTest, MultiplicationKnownValue) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  BigInt max64(~std::uint64_t{0});
  EXPECT_EQ((max64 * max64).ToHex(), "fffffffffffffffe0000000000000001");
  EXPECT_EQ((BigInt(0) * max64).ToHex(), "0");
}

TEST(BigIntTest, ShiftsRoundTrip) {
  BigInt v = BigInt::FromHex("deadbeefcafebabe1234");
  EXPECT_EQ(((v << 67) >> 67), v);
  EXPECT_EQ((v >> 1000).ToHex(), "0");
  EXPECT_EQ((BigInt(1) << 64).ToHex(), "10000000000000000");
}

TEST(BigIntTest, InPlaceAddSubMatchOutOfPlace) {
  DeterministicRng rng(50);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::RandomBits(rng, 300);
    BigInt b = BigInt::RandomBits(rng, 280);
    BigInt sum = a;
    sum += b;
    EXPECT_EQ(sum, a + b);
    BigInt diff = sum;
    diff -= b;
    EXPECT_EQ(diff, a);
  }
  BigInt small(1);
  EXPECT_THROW(small -= BigInt(2), Error);
}

TEST(BigIntTest, InPlaceAddCarryPropagation) {
  // All-ones value + 1 must grow a limb in place.
  BigInt v = (BigInt(1) << 192) - BigInt(1);
  v += BigInt(1);
  EXPECT_EQ(v, BigInt(1) << 192);
}

TEST(BigIntTest, InverseModOddAndEvenModuliAgree) {
  // The odd-modulus binary fast path and the Euclid fallback must agree
  // on values where both apply (compare against multiplying back).
  DeterministicRng rng(52);
  BigInt odd_m = BigInt::RandomBits(rng, 256);
  if (!odd_m.IsOdd()) odd_m += BigInt(1);
  BigInt even_m = odd_m + BigInt(1);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(rng, odd_m);
    if (BigInt::Gcd(a, odd_m).IsOne()) {
      EXPECT_TRUE(
          BigInt::MulMod(a, BigInt::InverseMod(a, odd_m), odd_m).IsOne());
    }
    if (BigInt::Gcd(a, even_m).IsOne() && !a.IsZero()) {
      EXPECT_TRUE(
          BigInt::MulMod(a, BigInt::InverseMod(a, even_m), even_m).IsOne());
    }
  }
  EXPECT_THROW(BigInt::InverseMod(BigInt(0), odd_m), Error);
}

TEST(BigIntTest, DivisionKnownValues) {
  auto dm = BigInt(100).Divide(BigInt(7));
  EXPECT_EQ(dm.quotient.ToU64(), 14u);
  EXPECT_EQ(dm.remainder.ToU64(), 2u);
  EXPECT_THROW(BigInt(1).Divide(BigInt(0)), Error);
  // Dividend smaller than divisor.
  auto dm2 = BigInt(3).Divide(BigInt(10));
  EXPECT_TRUE(dm2.quotient.IsZero());
  EXPECT_EQ(dm2.remainder.ToU64(), 3u);
}

TEST(BigIntTest, DivisionIdentityRandomized) {
  DeterministicRng rng(1);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBits(rng, 512);
    BigInt b = BigInt::RandomBits(rng, 200) + BigInt(1);
    auto dm = a.Divide(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder, b);
  }
}

TEST(BigIntTest, ModLimbMatchesGeneralMod) {
  DeterministicRng rng(2);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBits(rng, 300);
    std::uint64_t m = rng.NextU64() | 1;
    EXPECT_EQ(a.ModLimb(m), (a % BigInt(m)).ToU64());
  }
}

TEST(BigIntTest, ModularHelpers) {
  BigInt m(1000000007);
  EXPECT_EQ(BigInt::AddMod(BigInt(1000000006), BigInt(5), m).ToU64(), 4u);
  EXPECT_EQ(BigInt::SubMod(BigInt(3), BigInt(5), m).ToU64(), 1000000005u);
  EXPECT_EQ(BigInt::MulMod(BigInt(123456789), BigInt(987654321), m),
            (BigInt(123456789) * BigInt(987654321)) % m);
}

TEST(BigIntTest, PowModSmallKnownValues) {
  EXPECT_EQ(BigInt::PowMod(BigInt(2), BigInt(10), BigInt(1000)).ToU64(), 24u);
  EXPECT_EQ(BigInt::PowMod(BigInt(3), BigInt(0), BigInt(7)).ToU64(), 1u);
  EXPECT_EQ(BigInt::PowMod(BigInt(5), BigInt(117), BigInt(19)).ToU64(), 1u);
  // Even modulus fallback path.
  EXPECT_EQ(BigInt::PowMod(BigInt(3), BigInt(4), BigInt(100)).ToU64(), 81u % 100);
}

TEST(BigIntTest, FermatLittleTheorem) {
  // p prime, a^(p-1) = 1 mod p.
  BigInt p = BigInt::FromHex("ffffffffffffffc5");  // largest 64-bit prime
  DeterministicRng rng(3);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(rng, p - BigInt(1)) + BigInt(1);
    EXPECT_TRUE(BigInt::PowMod(a, p - BigInt(1), p).IsOne());
  }
}

TEST(BigIntTest, GcdKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(18)).ToU64(), 6u);
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToU64(), 1u);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToU64(), 5u);
}

TEST(BigIntTest, InverseModCorrectness) {
  DeterministicRng rng(4);
  BigInt m = BigInt::FromHex("fffffffffffffffffffffffffffffffeffffffffffffffff");
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, m);
    if (!BigInt::Gcd(a, m).IsOne()) continue;
    BigInt inv = BigInt::InverseMod(a, m);
    EXPECT_TRUE(BigInt::MulMod(a, inv, m).IsOne());
  }
  EXPECT_THROW(BigInt::InverseMod(BigInt(4), BigInt(8)), Error);
}

TEST(MontgomeryTest, MatchesNaiveModMul) {
  DeterministicRng rng(5);
  BigInt m = BigInt::RandomBits(rng, 512);
  if (!m.IsOdd()) m += BigInt(1);
  Montgomery mont(m);
  for (int i = 0; i < 30; ++i) {
    BigInt a = BigInt::Random(rng, m);
    BigInt b = BigInt::Random(rng, m);
    EXPECT_EQ(mont.Mul(a, b), BigInt::MulMod(a, b, m));
  }
}

TEST(MontgomeryTest, ToFromMontRoundTrip) {
  DeterministicRng rng(6);
  BigInt m = BigInt::RandomBits(rng, 256);
  if (!m.IsOdd()) m += BigInt(1);
  Montgomery mont(m);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Random(rng, m);
    EXPECT_EQ(mont.FromMont(mont.ToMont(a)), a);
  }
}

TEST(MontgomeryTest, PowMatchesSquareAndMultiply) {
  DeterministicRng rng(7);
  BigInt m = BigInt::RandomBits(rng, 128);
  if (!m.IsOdd()) m += BigInt(1);
  Montgomery mont(m);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::Random(rng, m);
    BigInt e = BigInt::RandomBits(rng, 64);
    // Naive reference.
    BigInt ref(1);
    for (std::size_t bit = e.BitLength(); bit-- > 0;) {
      ref = BigInt::MulMod(ref, ref, m);
      if (e.Bit(bit)) ref = BigInt::MulMod(ref, a, m);
    }
    EXPECT_EQ(mont.Pow(a, e), ref);
  }
}

// Moduli for the kernel differential tests: a random odd modulus with the
// top bit set, and the all-ones modulus 2^bits − 1, at each RSA/pairing
// width the library uses.
std::vector<BigInt> KernelModuli(DeterministicRng& rng) {
  std::vector<BigInt> moduli;
  for (std::size_t bits : {256, 512, 1024, 2048}) {
    BigInt n = BigInt::RandomBits(rng, bits - 1) + (BigInt(1) << (bits - 1));
    if (!n.IsOdd()) n += BigInt(1);
    moduli.push_back(n);
    moduli.push_back((BigInt(1) << bits) - BigInt(1));
  }
  return moduli;
}

TEST(MontgomeryTest, KernelMatchesSosOracle) {
  // Montgomery::MulMont (the CIOS kernel) against the old SOS product, bit
  // for bit, on edge limbs and seeded random operands.
  DeterministicRng rng(31);
  for (const BigInt& n : KernelModuli(rng)) {
    SCOPED_TRACE(n.BitLength());
    Montgomery mont(n);
    const std::size_t bits = n.BitLength();
    std::vector<BigInt> operands = {
        BigInt(0), BigInt(1), n - BigInt(1), n - BigInt(2),
        (BigInt(1) << (bits - 64)) - BigInt(1),  // all-ones low limbs
    };
    for (int i = 0; i < 4; ++i) operands.push_back(BigInt::Random(rng, n));
    for (const BigInt& a : operands) {
      for (const BigInt& b : operands) {
        EXPECT_EQ(mont.MulMont(a, b), oracle::SosMulMont(a, b, n));
      }
    }
    for (int i = 0; i < 20; ++i) {
      BigInt a = BigInt::Random(rng, n);
      BigInt b = BigInt::Random(rng, n);
      EXPECT_EQ(mont.MulMont(a, b), oracle::SosMulMont(a, b, n));
    }
  }
}

TEST(MontgomeryTest, KernelSquaresInPlace) {
  // MontMul on raw limb spans with the output aliasing both inputs.
  DeterministicRng rng(32);
  for (const BigInt& n : KernelModuli(rng)) {
    const std::size_t k = n.LimbCount();
    std::vector<std::uint64_t> limbs(k), n_limbs(k), scratch(k + 1);
    for (std::size_t i = 0; i < k; ++i) n_limbs[i] = n.Limb(i);
    BigInt a = BigInt::Random(rng, n);
    for (std::size_t i = 0; i < k; ++i) limbs[i] = a.Limb(i);
    MontMul(limbs, limbs, limbs, n_limbs, MontNPrime(n.Limb(0)), scratch);
    EXPECT_EQ(BigInt::FromLimbs(limbs), oracle::SosMulMont(a, a, n));
  }
}

TEST(MontgomeryTest, WindowedPowMatchesLadderOracle) {
  // The fixed-window PowMont against the bit-by-bit ladder it replaced, on
  // 512/1024/2048-bit moduli and exponents 0, 1, all ones, single bits and
  // random values, walked at their own width and at a wider public width.
  DeterministicRng rng(33);
  for (std::size_t bits : {512, 1024, 2048}) {
    SCOPED_TRACE(bits);
    BigInt n = BigInt::RandomBits(rng, bits - 1) + (BigInt(1) << (bits - 1));
    if (!n.IsOdd()) n += BigInt(1);
    Montgomery mont(n);
    std::vector<BigInt> exps = {BigInt(0), BigInt(1), BigInt(2), BigInt(65537),
                                (BigInt(1) << bits) - BigInt(1),
                                BigInt(1) << (bits - 1), BigInt(1) << 63,
                                BigInt(1) << 64};
    for (int i = 0; i < 3; ++i) exps.push_back(BigInt::RandomBits(rng, bits));
    for (const BigInt& base : {BigInt(0), BigInt(1), n - BigInt(1),
                               BigInt::Random(rng, n)}) {
      const BigInt base_mont = mont.ToMont(base);
      for (const BigInt& e : exps) {
        const BigInt want = oracle::LadderPowMont(mont, base_mont, e);
        EXPECT_EQ(mont.PowMont(base_mont, e), want) << e.ToHex();
        EXPECT_EQ(mont.PowMont(base_mont, e, bits + 7), want) << e.ToHex();
      }
    }
    EXPECT_THROW((void)mont.PowMont(mont.ToMont(BigInt(3)), n, bits - 1),
                 Error);
  }
}

TEST(MontgomeryTest, WideOperandsReduceWithoutDivision) {
  // ToMont folds operands wider than n through MontMul; Sub wraps by mask.
  DeterministicRng rng(34);
  for (std::size_t bits : {192, 512, 1024}) {
    BigInt n = BigInt::RandomBits(rng, bits - 1) + (BigInt(1) << (bits - 1));
    if (!n.IsOdd()) n += BigInt(1);
    Montgomery mont(n);
    for (std::size_t wide : {bits + 1, 2 * bits, 3 * bits + 17}) {
      BigInt a = BigInt::RandomBits(rng, wide);
      EXPECT_EQ(mont.FromMont(mont.ToMont(a)), a % n);
      EXPECT_EQ(mont.Mul(a, a), BigInt::MulMod(a, a, n));
    }
    BigInt a = BigInt::Random(rng, n), b = BigInt::Random(rng, n);
    EXPECT_EQ(mont.Sub(a, b), BigInt::SubMod(a, b, n));
    EXPECT_EQ(mont.Sub(b, a), BigInt::SubMod(b, a, n));
    EXPECT_TRUE(mont.Sub(a, a).IsZero());
  }
}

TEST(BigIntTest, TryInverseModOddReportsNonUnits) {
  const BigInt n = BigInt(3 * 5 * 7 * 11 * 13);
  EXPECT_FALSE(BigInt::TryInverseModOdd(BigInt(0), n).has_value());
  EXPECT_FALSE(BigInt::TryInverseModOdd(BigInt(21), n).has_value());
  auto inv = BigInt::TryInverseModOdd(BigInt(4), n);
  ASSERT_TRUE(inv.has_value());
  EXPECT_TRUE(BigInt::MulMod(*inv, BigInt(4), n).IsOne());
  EXPECT_THROW((void)BigInt::TryInverseModOdd(BigInt(3), BigInt(8)), Error);

  // Word-skipping binary GCD against a·a⁻¹ ≡ 1, across widths, with
  // operands that have long runs of zero bits (whole zero limbs) and with
  // shared factors.
  DeterministicRng rng(35);
  for (std::size_t bits : {61, 64, 65, 512, 1024, 2048}) {
    BigInt m = BigInt::RandomBits(rng, bits - 1) + (BigInt(1) << (bits - 1));
    if (!m.IsOdd()) m += BigInt(1);
    std::vector<BigInt> as = {BigInt(1), BigInt(2), m - BigInt(1),
                              BigInt(1) << (bits - 2),
                              (BigInt(1) << (bits - 2)) + BigInt(1)};
    for (int i = 0; i < 8; ++i) as.push_back(BigInt::Random(rng, m));
    for (const BigInt& a : as) {
      auto a_inv = BigInt::TryInverseModOdd(a, m);
      if (!BigInt::Gcd(a, m).IsOne()) {
        EXPECT_FALSE(a_inv.has_value());
        continue;
      }
      ASSERT_TRUE(a_inv.has_value());
      EXPECT_LT(*a_inv, m);
      EXPECT_TRUE(BigInt::MulMod(*a_inv, a, m).IsOne()) << a.ToHex();
    }
    const BigInt shared = m * BigInt(3);
    EXPECT_FALSE(BigInt::TryInverseModOdd(BigInt(3) * BigInt(7), shared)
                     .has_value());
  }
}

TEST(MontgomeryTest, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery mont(BigInt(100)), Error);
  EXPECT_THROW(Montgomery mont2(BigInt(1)), Error);
}

TEST(BigIntTest, RandomRespectsBound) {
  DeterministicRng rng(8);
  BigInt bound = BigInt::FromHex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::Random(rng, bound), bound);
  }
  EXPECT_THROW(BigInt::Random(rng, BigInt(0)), Error);
}

TEST(BigIntTest, RandomBitsMasksHighBits) {
  DeterministicRng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LE(BigInt::RandomBits(rng, 100).BitLength(), 100u);
  }
}

// --------------------------- primality ---------------------------

TEST(PrimeTest, KnownPrimesAccepted) {
  DeterministicRng rng(10);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 65537ull, 4294967291ull}) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), rng)) << p;
  }
  // 2^127 - 1 is a Mersenne prime.
  BigInt m127 = (BigInt(1) << 127) - BigInt(1);
  EXPECT_TRUE(IsProbablePrime(m127, rng));
}

TEST(PrimeTest, KnownCompositesRejected) {
  DeterministicRng rng(11);
  // Carmichael numbers fool Fermat but not Miller–Rabin.
  for (std::uint64_t c : {561ull, 1105ull, 1729ull, 41041ull, 825265ull}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), rng)) << c;
  }
  EXPECT_FALSE(IsProbablePrime(BigInt(0), rng));
  EXPECT_FALSE(IsProbablePrime(BigInt(1), rng));
  BigInt sq = BigInt::FromHex("ffffffffffffffc5") * BigInt::FromHex("ffffffffffffffc5");
  EXPECT_FALSE(IsProbablePrime(sq, rng));
}

TEST(PrimeTest, GeneratedPrimeHasExactBitLength) {
  DeterministicRng rng(12);
  BigInt p = GeneratePrime(128, rng);
  EXPECT_EQ(p.BitLength(), 128u);
  EXPECT_TRUE(IsProbablePrime(p, rng));
}

TEST(PrimeTest, RsaPrimeCoprimality) {
  DeterministicRng rng(13);
  BigInt e(65537);
  BigInt p = GenerateRsaPrime(128, e, rng);
  EXPECT_TRUE(BigInt::Gcd(p - BigInt(1), e).IsOne());
}

}  // namespace
}  // namespace reed::bigint
