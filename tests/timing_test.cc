// Constant-time checks in the style of dudect (Reparaz, Balasch and
// Verbauwhede, DATE 2017): time one operation on two classes of secret
// input — one fixed value against fresh random values — in a random
// interleaving, crop the slow tail, and apply Welch's t-test to the two
// timing samples. |t| above the threshold means the time depends on the
// secret. The same harness is run on the variable-time code each kernel
// replaced (the square-and-multiply ladder, the double-and-add scalar
// multiply), and must flag it: that shows the harness can see a leak at the
// sample sizes used here.
//
// Labelled "timing", outside "quick": it measures wall time, so run it on
// an otherwise idle machine (ctest -L timing).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "crypto/random.h"
#include "oracles/ladder_pow.h"
#include "pairing/fixed_base.h"
#include "pairing/pairing.h"
#include "rsa/rsa.h"

namespace reed {
namespace {

using bigint::BigInt;
using crypto::DeterministicRng;

// dudect's threshold for "definitely not constant time".
constexpr double kLeakT = 4.5;

struct Sample {
  bool fixed;
  double ns;
};

// Runs op(fixed_class, index) `per_class` times per class in a seeded random
// order and returns Welch's t over the measurements below the 90th
// percentile of all of them.
double WelchT(std::size_t per_class,
              const std::function<void(bool, std::size_t)>& op) {
  DeterministicRng order(99);
  std::vector<bool> classes(2 * per_class);
  for (std::size_t i = 0; i < per_class; ++i) classes[i] = true;
  for (std::size_t i = classes.size(); i-- > 1;) {
    std::size_t j = order.Uniform(i + 1);
    bool tmp = classes[i];
    classes[i] = classes[j];
    classes[j] = tmp;
  }
  for (std::size_t i = 0; i < 16; ++i) op(i % 2 == 0, i);  // warm-up
  std::vector<Sample> samples;
  samples.reserve(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) {
    auto start = std::chrono::steady_clock::now();
    op(classes[i], i);
    auto end = std::chrono::steady_clock::now();
    samples.push_back(
        {classes[i], std::chrono::duration<double, std::nano>(end - start)
                         .count()});
  }
  std::vector<double> all;
  for (const Sample& s : samples) all.push_back(s.ns);
  std::sort(all.begin(), all.end());
  const double crop = all[all.size() * 9 / 10];
  double n[2] = {0, 0}, mean[2] = {0, 0}, m2[2] = {0, 0};
  for (const Sample& s : samples) {
    if (s.ns > crop) continue;
    const int c = s.fixed ? 0 : 1;
    n[c] += 1;
    const double delta = s.ns - mean[c];
    mean[c] += delta / n[c];
    m2[c] += delta * (s.ns - mean[c]);
  }
  const double var0 = m2[0] / (n[0] - 1), var1 = m2[1] / (n[1] - 1);
  return (mean[0] - mean[1]) / std::sqrt(var0 / n[0] + var1 / n[1]);
}

TEST(ConstantTimeTest, CrtSignDoesNotDependOnTheExponents) {
  // The key manager's CRT signing path with dp = dq = 1 against random
  // dp, dq of full width, on random messages. Both classes draw their
  // context from a pool of the same size, so cache behaviour matches.
  DeterministicRng rng(2017);
  const rsa::RsaKeyPair kp = rsa::GenerateKeyPair(1024, rng);
  constexpr std::size_t kPool = 32;
  std::vector<rsa::RsaPrivateContext> fixed_pool, random_pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    rsa::RsaPrivateKey fixed = kp.priv;
    fixed.dp = BigInt(1);
    fixed.dq = BigInt(1);
    fixed_pool.emplace_back(fixed);
    rsa::RsaPrivateKey random = kp.priv;
    random.dp = BigInt::Random(rng, kp.priv.p);
    random.dq = BigInt::Random(rng, kp.priv.q);
    random_pool.emplace_back(random);
  }
  std::vector<BigInt> messages;
  for (std::size_t i = 0; i < 64; ++i) {
    messages.push_back(BigInt::Random(rng, kp.pub.n));
  }
  const double t = WelchT(2000, [&](bool fixed, std::size_t i) {
    const auto& pool = fixed ? fixed_pool : random_pool;
    (void)pool[i % kPool].Apply(messages[i % messages.size()]);
  });
  std::printf("CRT sign, fixed vs random dp/dq: t = %.2f\n", t);
  EXPECT_LT(std::fabs(t), kLeakT) << "t = " << t;

  // The ladder it replaced leaks through the same harness.
  const bigint::Montgomery mont(kp.priv.p);
  std::vector<BigInt> random_exps;
  for (std::size_t i = 0; i < kPool; ++i) {
    random_exps.push_back(BigInt::Random(rng, kp.priv.p));
  }
  const BigInt base = mont.ToMont(messages[0]);
  const double t_ladder = WelchT(300, [&](bool fixed, std::size_t i) {
    (void)bigint::oracle::LadderPowMont(
        mont, base, fixed ? BigInt(1) : random_exps[i % kPool]);
  });
  std::printf("ladder oracle, fixed vs random exponent: t = %.2f\n",
              t_ladder);
  EXPECT_GT(std::fabs(t_ladder), kLeakT) << "t = " << t_ladder;
}

TEST(ConstantTimeTest, FixedBaseMulDoesNotDependOnTheScalar) {
  // The CP-ABE encrypt path's fixed-base multiply with the scalar 1 against
  // random scalars below r.
  const pairing::TypeAPairing e(pairing::TypeAParams::Default());
  const pairing::G1FixedBase table(e.generator(), e.group_order());
  DeterministicRng rng(2018);
  std::vector<BigInt> fixed(32, BigInt(1)), random;
  for (std::size_t i = 0; i < 32; ++i) random.push_back(e.RandomScalar(rng));
  const double t = WelchT(2000, [&](bool is_fixed, std::size_t i) {
    (void)table.MulJacobian(is_fixed ? fixed[i % 32] : random[i % 32]);
  });
  std::printf("fixed-base multiply, fixed vs random scalar: t = %.2f\n", t);
  EXPECT_LT(std::fabs(t), kLeakT) << "t = " << t;

  // Double-and-add on the same base leaks through the same harness.
  const double t_oracle = WelchT(300, [&](bool is_fixed, std::size_t i) {
    (void)e.generator().ScalarMul(is_fixed ? fixed[i % 32] : random[i % 32]);
  });
  std::printf("double-and-add oracle, fixed vs random scalar: t = %.2f\n",
              t_oracle);
  EXPECT_GT(std::fabs(t_oracle), kLeakT) << "t = " << t_oracle;
}

}  // namespace
}  // namespace reed
