#include "bigint/bigint.h"

#include <algorithm>

namespace reed::bigint {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromHex(std::string_view hex) {
  BigInt out;
  // Left-pad to a whole number of limbs (16 hex digits each).
  std::string padded(hex);
  if (padded.empty()) return out;
  std::size_t rem = padded.size() % 16;
  if (rem) padded.insert(0, 16 - rem, '0');
  std::size_t nlimbs = padded.size() / 16;
  out.limbs_.resize(nlimbs);
  for (std::size_t i = 0; i < nlimbs; ++i) {
    std::string_view part(padded.data() + 16 * (nlimbs - 1 - i), 16);
    u64 v = 0;
    for (char c : part) {
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
      else throw Error("BigInt::FromHex: bad digit");
      v = (v << 4) | static_cast<u64>(d);
    }
    out.limbs_[i] = v;
  }
  out.Normalize();
  return out;
}

BigInt BigInt::FromBytes(ByteSpan be) {
  BigInt out;
  out.limbs_.assign((be.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    // byte be[i] has weight 256^(size-1-i)
    std::size_t pos = be.size() - 1 - i;
    out.limbs_[pos / 8] |= static_cast<u64>(be[i]) << (8 * (pos % 8));
  }
  out.Normalize();
  return out;
}

BigInt BigInt::FromLimbs(std::span<const u64> limbs) {
  BigInt out;
  out.limbs_.assign(limbs.begin(), limbs.end());
  out.Normalize();
  return out;
}

std::string BigInt::ToHex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(digits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  std::size_t first = out.find_first_not_of('0');
  return first == std::string::npos ? "0" : out.substr(first);
}

Bytes BigInt::ToBytes() const {
  std::size_t bits = BitLength();
  std::size_t nbytes = (bits + 7) / 8;
  return ToBytesPadded(nbytes);
}

Bytes BigInt::ToBytesPadded(std::size_t n) const {
  Bytes out(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t pos = n - 1 - i;  // weight of out[i]
    u64 limb = Limb(pos / 8);
    out[i] = static_cast<std::uint8_t>(limb >> (8 * (pos % 8)));
  }
  // Verify nothing was truncated.
  if (BitLength() > n * 8) throw Error("BigInt::ToBytesPadded: value too large");
  return out;
}

std::size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t bits = 64 * (limbs_.size() - 1);
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt out;
  std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(Limb(i)) + other.Limb(i) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  out.limbs_[n] = carry;
  out.Normalize();
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (*this < other) throw Error("BigInt: negative subtraction result");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 lhs = limbs_[i];
    u128 rhs = static_cast<u128>(other.Limb(i)) + borrow;
    if (lhs >= rhs) {
      out.limbs_[i] = static_cast<u64>(lhs - rhs);
      borrow = 0;
    } else {
      out.limbs_[i] = static_cast<u64>((u128(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (IsZero() || other.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    u64 a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(a) * other.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + other.limbs_.size()] += carry;
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (IsZero()) return BigInt();
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Normalize();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  std::size_t limb_shift = bits / 64;
  std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    u64 lo = limbs_[i + limb_shift] >> bit_shift;
    u64 hi = 0;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      hi = limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    out.limbs_[i] = lo | hi;
  }
  out.Normalize();
  return out;
}

BigInt& BigInt::operator+=(const BigInt& other) {
  std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  limbs_.resize(n, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = static_cast<u128>(limbs_[i]) + other.Limb(i) + carry;
    limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& other) {
  if (*this < other) throw Error("BigInt: negative subtraction result");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 lhs = limbs_[i];
    u128 rhs = static_cast<u128>(other.Limb(i)) + borrow;
    if (lhs >= rhs) {
      limbs_[i] = static_cast<u64>(lhs - rhs);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<u64>((u128(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  Normalize();
  return *this;
}

BigInt::DivMod BigInt::Divide(const BigInt& divisor) const {
  if (divisor.IsZero()) throw Error("BigInt: division by zero");
  if (*this < divisor) return {BigInt(), *this};

  // Shift-subtract long division, one bit per step, starting from the
  // aligned position. Division is off the hot paths (Montgomery handles
  // modexp), so clarity wins over Knuth D.
  std::size_t shift = BitLength() - divisor.BitLength();
  BigInt rem = *this;
  BigInt d = divisor << shift;
  BigInt quot;
  quot.limbs_.assign(shift / 64 + 1, 0);
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (rem >= d) {
      rem -= d;
      quot.limbs_[i / 64] |= u64(1) << (i % 64);
    }
    d = d >> 1;
  }
  quot.Normalize();
  return {std::move(quot), std::move(rem)};
}

BigInt BigInt::MulLimb(u64 m) const {
  if (m == 0 || IsZero()) return BigInt();
  BigInt out;
  out.limbs_.resize(limbs_.size() + 1, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 cur = static_cast<u128>(limbs_[i]) * m + carry;
    out.limbs_[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  out.limbs_[limbs_.size()] = carry;
  out.Normalize();
  return out;
}

std::uint64_t BigInt::ModLimb(u64 m) const {
  if (m == 0) throw Error("BigInt::ModLimb: division by zero");
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 64) | limbs_[i]) % m;
  }
  return static_cast<u64>(rem);
}

BigInt BigInt::AddMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a + b) % m;
}

BigInt BigInt::SubMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt ar = a % m;
  BigInt br = b % m;
  if (ar >= br) return ar - br;
  return ar + m - br;
}

BigInt BigInt::MulMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b) % m;
}

BigInt BigInt::PowMod(const BigInt& a, const BigInt& e, const BigInt& m) {
  if (m.IsZero()) throw Error("BigInt::PowMod: zero modulus");
  if (m.IsOne()) return BigInt();
  if (m.IsOdd()) {
    Montgomery mont(m);
    return mont.Pow(a, e);
  }
  // Even modulus: plain square-and-multiply (rare path, kept for API
  // completeness).
  BigInt result(1);
  BigInt base = a % m;
  for (std::size_t i = e.BitLength(); i-- > 0;) {
    result = MulMod(result, result, m);
    if (e.Bit(i)) result = MulMod(result, base, m);
  }
  return result;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  while (!b.IsZero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

namespace {

// Binary extended GCD (HAC 14.61 style) — no divisions, so much faster
// than Euclid for the odd moduli that dominate REED (field primes, RSA
// moduli). Requires m odd and > 1; nullopt when gcd(a, m) != 1.
//
// It runs on fixed-width limb arrays with no allocation in the loop. A run
// of t trailing zeros leaves u (or v) in one shift, and the matching
// x / 2^t mod m costs one multiply-add: with q = x·(−m⁻¹) mod 2^t,
// x + q·m is divisible by 2^t and (x + q·m) / 2^t < m.
std::optional<BigInt> BinaryInverseOdd(const BigInt& a, const BigInt& m) {
  const std::size_t k = m.LimbCount();
  const BigInt a_red = a < m ? a : a % m;
  if (a_red.IsZero()) return std::nullopt;
  // u | v | x1 | x2 | m | tmp (k + 1 limbs)
  std::vector<u64> buf(6 * k + 1, 0);
  u64* u = buf.data();
  u64* v = u + k;
  u64* x1 = v + k;  // invariants: x1·a ≡ u, x2·a ≡ v (mod m)
  u64* x2 = x1 + k;
  u64* mm = x2 + k;
  u64* tmp = mm + k;
  for (std::size_t i = 0; i < k; ++i) {
    u[i] = a_red.Limb(i);
    v[i] = mm[i] = m.Limb(i);
  }
  x1[0] = 1;
  const u64 neg_m_inv = MontNPrime(mm[0]);

  auto equals = [k](const u64* x, u64 low) {
    if (x[0] != low) return false;
    for (std::size_t i = 1; i < k; ++i) {
      if (x[i] != 0) return false;
    }
    return true;
  };
  auto sub = [k](u64* x, const u64* y) {  // x −= y; returns the borrow
    u64 borrow = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 d = static_cast<u128>(x[i]) - y[i] - borrow;
      x[i] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> 64) & 1;
    }
    return borrow;
  };
  auto sub_mod = [&](u64* x, const u64* y) {  // x = (x − y) mod m
    if (sub(x, y) == 0) return;
    u64 carry = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const u128 s = static_cast<u128>(x[i]) + mm[i] + carry;
      x[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  };
  // w /= 2^t and x = x / 2^t mod m until w is odd (w ≠ 0).
  auto strip = [&](u64* w, u64* x) {
    while ((w[0] & 1) == 0) {
      const unsigned t =
          w[0] == 0 ? 63u : static_cast<unsigned>(__builtin_ctzll(w[0]));
      for (std::size_t i = 0; i < k; ++i) {
        w[i] = (w[i] >> t) | (i + 1 < k ? w[i + 1] << (64 - t) : 0);
      }
      const u64 q = (x[0] * neg_m_inv) & ((u64{1} << t) - 1);
      u64 carry = 0;
      for (std::size_t i = 0; i < k; ++i) {
        const u128 s = static_cast<u128>(q) * mm[i] + x[i] + carry;
        tmp[i] = static_cast<u64>(s);
        carry = static_cast<u64>(s >> 64);
      }
      tmp[k] = carry;
      for (std::size_t i = 0; i < k; ++i) {
        x[i] = (tmp[i] >> t) | (tmp[i + 1] << (64 - t));
      }
    }
  };
  auto greater_eq = [k](const u64* x, const u64* y) {
    for (std::size_t i = k; i-- > 0;) {
      if (x[i] != y[i]) return x[i] > y[i];
    }
    return true;
  };

  for (;;) {
    strip(u, x1);
    strip(v, x2);
    if (equals(u, 1)) return BigInt::FromLimbs(std::span<const u64>(x1, k));
    if (equals(v, 1)) return BigInt::FromLimbs(std::span<const u64>(x2, k));
    if (greater_eq(u, v)) {
      (void)sub(u, v);
      sub_mod(x1, x2);
      if (equals(u, 0)) return std::nullopt;
    } else {
      (void)sub(v, u);
      sub_mod(x2, x1);
      if (equals(v, 0)) return std::nullopt;
    }
  }
}

}  // namespace

std::optional<BigInt> BigInt::TryInverseModOdd(const BigInt& a,
                                               const BigInt& m) {
  if (!m.IsOdd() || m.IsOne()) {
    throw Error("BigInt::TryInverseModOdd: modulus must be odd and > 1");
  }
  return BinaryInverseOdd(a, m);
}

BigInt BigInt::InverseMod(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking only the coefficient of `a`, with signs
  // handled by parity bookkeeping: invariants r0 = s0*a (mod m), r1 = s1*a.
  if (m.IsZero()) throw Error("BigInt::InverseMod: zero modulus");
  if (m.IsOdd() && !m.IsOne()) {
    std::optional<BigInt> inv = BinaryInverseOdd(a, m);
    if (!inv.has_value()) throw Error("BigInt::InverseMod: not invertible");
    return std::move(*inv);
  }
  BigInt r0 = m, r1 = a % m;
  BigInt s0, s1(1);       // |s| values
  bool neg0 = false, neg1 = false;
  while (!r1.IsZero()) {
    DivMod qr = r0.Divide(r1);
    // s2 = s0 - q*s1 with sign tracking.
    BigInt qs1 = qr.quotient * s1;
    BigInt s2;
    bool neg2;
    if (neg0 == neg1) {
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        neg2 = neg0;
      } else {
        s2 = qs1 - s0;
        neg2 = !neg0;
      }
    } else {
      s2 = s0 + qs1;
      neg2 = neg0;
    }
    r0 = std::move(r1);
    r1 = std::move(qr.remainder);
    s0 = std::move(s1);
    neg0 = neg1;
    s1 = std::move(s2);
    neg1 = neg2;
  }
  if (!r0.IsOne()) throw Error("BigInt::InverseMod: not invertible");
  BigInt inv = s0 % m;
  if (neg0 && !inv.IsZero()) inv = m - inv;
  return inv;
}

BigInt BigInt::Random(crypto::Rng& rng, const BigInt& bound) {
  if (bound.IsZero()) throw Error("BigInt::Random: zero bound");
  std::size_t bits = bound.BitLength();
  // Rejection sampling at the bound's bit length: expected < 2 draws.
  for (;;) {
    BigInt candidate = RandomBits(rng, bits);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::RandomBits(crypto::Rng& rng, std::size_t bits) {
  if (bits == 0) return BigInt();
  std::size_t nbytes = (bits + 7) / 8;
  Bytes buf = rng.Generate(nbytes);
  // Mask excess high bits.
  std::size_t excess = nbytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xFF >> excess);
  return FromBytes(buf);
}

// ---------------------------------------------------------------------------
// Montgomery
// ---------------------------------------------------------------------------

u64 MontNPrime(u64 n0) {
  // Newton–Hensel lifting doubles the correct low bits each step.
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  return ~inv + 1;  // -inv mod 2^64
}

namespace {

// out = (a + b) mod n over k limbs, for a, b < n. The subtraction of n is
// applied or skipped by a mask, not a branch. out may alias a or b.
void AddModLimbs(std::span<u64> out, std::span<const u64> a,
                 std::span<const u64> b, std::span<const u64> n) {
  const std::size_t k = n.size();
  u64 carry = 0, borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 sum = static_cast<u128>(a[j]) + b[j] + carry;
    out[j] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  // The sum is < 2n: subtract n unless that borrows past a carry-free sum.
  // A first pass only finds the borrow; the second subtracts n & mask.
  for (std::size_t j = 0; j < k; ++j) {
    const u128 d = static_cast<u128>(out[j]) - n[j] - borrow;
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  const u64 subtract = ~(u64{0} - (borrow & (carry ^ 1)));
  borrow = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const u128 d = static_cast<u128>(out[j]) - (n[j] & subtract) - borrow;
    out[j] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
}

}  // namespace

Montgomery::Montgomery(const BigInt& modulus) : n_(modulus) {
  if (!n_.IsOdd() || n_.IsOne()) {
    throw Error("Montgomery: modulus must be odd and > 1");
  }
  k_ = n_.LimbCount();
  n_prime_ = MontNPrime(n_.Limb(0));
  // R < 2^64 · n, so this division runs at most 65 shift-subtract steps.
  r_mod_n_ = (BigInt(1) << (64 * k_)) % n_;
  // R² mod n is the Montgomery form of 2^(64k): raise the Montgomery form
  // of 2 (= 2R mod n) to the 64k-th power, a dozen squarings instead of a
  // 64k-step long division.
  BigInt two_r = r_mod_n_ + r_mod_n_;
  if (two_r >= n_) two_r -= n_;
  r2_mod_n_ = PowMont(two_r, BigInt(64 * k_));
}

void Montgomery::Pad(const BigInt& a, std::span<u64> out) const {
  if (a.limbs_.size() > k_) throw Error("Montgomery: operand wider than n");
  std::fill(out.begin(), out.end(), u64{0});
  std::copy(a.limbs_.begin(), a.limbs_.end(), out.begin());
}

BigInt Montgomery::MulMont(const BigInt& a, const BigInt& b) const {
  std::vector<u64> buf(3 * k_ + 1);  // a | b | scratch
  std::span<u64> as(buf.data(), k_), bs(buf.data() + k_, k_);
  Pad(a, as);
  Pad(b, bs);
  BigInt out;
  out.limbs_.resize(k_);
  MontMul(out.limbs_, as, bs, n_.limbs_, n_prime_,
          std::span<u64>(buf.data() + 2 * k_, k_ + 1));
  out.Normalize();
  return out;
}

BigInt Montgomery::Sub(const BigInt& a, const BigInt& b) const {
  std::vector<u64> buf(2 * k_);  // a | b
  std::span<u64> as(buf.data(), k_), bs(buf.data() + k_, k_);
  Pad(a, as);
  Pad(b, bs);
  BigInt out;
  out.limbs_.resize(k_);
  u64 borrow = 0;
  for (std::size_t j = 0; j < k_; ++j) {
    const u128 d = static_cast<u128>(as[j]) - bs[j] - borrow;
    out.limbs_[j] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // Add n back under a mask when the difference went negative.
  const u64 mask = u64{0} - borrow;
  u64 carry = 0;
  for (std::size_t j = 0; j < k_; ++j) {
    const u128 s = static_cast<u128>(out.limbs_[j]) + (n_.limbs_[j] & mask) +
                   carry;
    out.limbs_[j] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  out.Normalize();
  return out;
}

BigInt Montgomery::ToMont(const BigInt& a) const {
  // Any a < R: MontMul(a, R²) = a·R mod n directly.
  if (a.limbs_.size() <= k_) return MulMont(a, r2_mod_n_);
  // Wider: Horner over k-limb chunks c_j from the top,
  // Mont(acc·R + c) = MulMont(Mont(acc), R²) + MulMont(c, R²).
  const std::size_t chunks = (a.limbs_.size() + k_ - 1) / k_;
  auto chunk = [&](std::size_t j) {
    const std::size_t lo = j * k_;
    const std::size_t hi = std::min(a.limbs_.size(), lo + k_);
    return BigInt::FromLimbs(std::span<const u64>(a.limbs_.data() + lo,
                                                  hi - lo));
  };
  std::vector<u64> acc(k_), term(k_);
  Pad(MulMont(chunk(chunks - 1), r2_mod_n_), acc);
  for (std::size_t j = chunks - 1; j-- > 0;) {
    Pad(MulMont(BigInt::FromLimbs(acc), r2_mod_n_), acc);
    Pad(MulMont(chunk(j), r2_mod_n_), term);
    AddModLimbs(acc, acc, term, n_.limbs_);
  }
  return BigInt::FromLimbs(acc);
}

BigInt Montgomery::FromMont(const BigInt& a) const {
  return MulMont(a, BigInt(1));
}

BigInt Montgomery::Mul(const BigInt& a, const BigInt& b) const {
  // MulMont(a·R, b) = a·b mod n for any b below R.
  const BigInt& narrow_b = b.limbs_.size() <= k_ ? b : FromMont(ToMont(b));
  return MulMont(ToMont(a), narrow_b);
}

namespace {

// The windowed exponentiation over raw limbs. K > 0 fixes the limb count
// at compile time, so MontMul's loops unroll for the RSA widths (8 limbs
// for a 1024-bit key's CRT halves, 16 and 32 for 1024/2048-bit moduli);
// K = 0 takes the width k at run time.
template <std::size_t K>
void WindowedPow(std::span<u64> acc, std::span<const u64> base,
                 std::span<const u64> one, const BigInt& exp,
                 std::size_t exp_bits, std::span<const u64> n_limbs,
                 u64 n_prime) {
  constexpr std::size_t kWindowBits = 4;
  constexpr std::size_t kEntries = std::size_t{1} << kWindowBits;
  const std::size_t k = K != 0 ? K : n_limbs.size();
  // One buffer: table (base^0 .. base^15) | selected entry | scratch.
  std::vector<u64> buf((kEntries + 1) * k + k + 1);
  u64* table = buf.data();
  u64* sel = table + kEntries * k;
  u64* scratch = sel + k;
  const u64* n = n_limbs.data();
  auto mul = [&](u64* out, const u64* a, const u64* b) {
    MontMul(std::span<u64>(out, k), std::span<const u64>(a, k),
            std::span<const u64>(b, k), std::span<const u64>(n, k), n_prime,
            std::span<u64>(scratch, k + 1));
  };
  std::copy(one.begin(), one.end(), table);
  std::copy(base.begin(), base.end(), table + k);
  for (std::size_t j = 2; j < kEntries; ++j) {
    mul(table + j * k, table + (j - 1) * k, table + k);
  }
  std::copy(one.begin(), one.end(), acc.begin());
  const std::size_t windows = (exp_bits + kWindowBits - 1) / kWindowBits;
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {
      for (std::size_t s = 0; s < kWindowBits; ++s) {
        mul(acc.data(), acc.data(), acc.data());
      }
    }
    const std::size_t bit = w * kWindowBits;
    const u64 idx = (exp.Limb(bit / 64) >> (bit % 64)) & (kEntries - 1);
    // Read every entry; keep the one whose index matches, by mask.
    for (std::size_t j = 0; j < kEntries; ++j) {
      const u64 mask = u64{0} - (((idx ^ j) - 1) >> 63);
      const u64* e = table + j * k;
      for (std::size_t l = 0; l < k; ++l) {
        sel[l] = (sel[l] & ~mask) | (e[l] & mask);
      }
    }
    mul(acc.data(), acc.data(), sel);
  }
}

}  // namespace

BigInt Montgomery::PowMont(const BigInt& base_mont, const BigInt& exp,
                           std::size_t exp_bits) const {
  if (exp_bits == 0) exp_bits = exp.BitLength();
  if (exp.BitLength() > exp_bits) {
    throw Error("Montgomery::PowMont: exponent wider than exp_bits");
  }
  std::vector<u64> limbs(3 * k_);  // acc | base | 1 (Montgomery form)
  std::span<u64> acc(limbs.data(), k_), base(limbs.data() + k_, k_);
  std::span<u64> one(limbs.data() + 2 * k_, k_);
  Pad(base_mont, base);
  Pad(r_mod_n_, one);
  switch (k_) {
    case 8:
      WindowedPow<8>(acc, base, one, exp, exp_bits, n_.limbs_, n_prime_);
      break;
    case 16:
      WindowedPow<16>(acc, base, one, exp, exp_bits, n_.limbs_, n_prime_);
      break;
    case 32:
      WindowedPow<32>(acc, base, one, exp, exp_bits, n_.limbs_, n_prime_);
      break;
    default:
      WindowedPow<0>(acc, base, one, exp, exp_bits, n_.limbs_, n_prime_);
  }
  return BigInt::FromLimbs(acc);
}

BigInt Montgomery::Pow(const BigInt& base, const BigInt& exp,
                       std::size_t exp_bits) const {
  return FromMont(PowMont(ToMont(base), exp, exp_bits));
}

}  // namespace reed::bigint
