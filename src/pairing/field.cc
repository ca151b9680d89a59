#include "pairing/field.h"

namespace reed::pairing {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

// base^e for a public exponent e, with a fixed 4-bit window: 14 multiplies
// build base^0..base^15, then each window squares four times and
// multiplies once unless its digit is zero. The branch and the table index
// follow e only, never the base.
template <typename T>
T WindowedPow(const T& base, const T& one, const BigInt& e) {
  constexpr std::size_t kWindowBits = 4;
  std::array<T, 16> table;
  table[0] = one;
  table[1] = base;
  for (std::size_t j = 2; j < table.size(); ++j) {
    table[j] = table[j - 1] * base;
  }
  T result = one;
  const std::size_t windows = (e.BitLength() + kWindowBits - 1) / kWindowBits;
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {
      for (std::size_t s = 0; s < kWindowBits; ++s) result = result.Square();
    }
    const std::size_t bit = w * kWindowBits;
    const std::uint64_t digit = (e.Limb(bit / 64) >> (bit % 64)) & 0xF;
    if (digit != 0) result = result * table[digit];
  }
  return result;
}

FpLimbs ToLimbs(const BigInt& v) {
  FpLimbs out{};
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) out[i] = v.Limb(i);
  return out;
}

}  // namespace

FpField::FpField(BigInt p) : p_(std::move(p)) {
  if (p_.LimbCount() > kFpMaxLimbs) {
    throw Error("FpField: p wider than " + std::to_string(64 * kFpMaxLimbs) +
                " bits");
  }
  if (p_.ModLimb(4) != 3) {
    throw Error("FpField: p must be congruent to 3 mod 4");
  }
  sqrt_exp_ = (p_ + BigInt(1)) >> 2;
  inverse_exp_ = p_ - BigInt(2);
  ebytes_ = (p_.BitLength() + 7) / 8;
  n_prime_ = bigint::MontNPrime(p_.Limb(0));
  p_limbs_ = ToLimbs(p_);
  one_ = ToLimbs((BigInt(1) << (64 * kFpMaxLimbs)) % p_);
  r2_ = ToLimbs((BigInt(1) << (128 * kFpMaxLimbs)) % p_);
}

void FpField::MulMont(FpLimbs& out, const FpLimbs& a, const FpLimbs& b) const {
  std::array<u64, kFpMaxLimbs + 1> scratch{};
  bigint::MontMul(out, a, b, p_limbs_, n_prime_, scratch);
}

Fp Fp::FromBigInt(const FpField* f, const BigInt& plain) {
  FpLimbs v = ToLimbs(plain >= f->p() ? plain % f->p() : plain);
  f->MulMont(v, v, f->r2());
  return Fp(f, v);
}

Fp Fp::FromU64(const FpField* f, std::uint64_t v) {
  return FromBigInt(f, BigInt(v));
}

Fp Fp::Random(const FpField* f, crypto::Rng& rng) {
  return FromBigInt(f, BigInt::Random(rng, f->p()));
}

BigInt Fp::ToBigInt() const {
  FpLimbs unit{};
  unit[0] = 1;
  FpLimbs plain{};
  field_->MulMont(plain, v_, unit);
  return BigInt::FromLimbs(plain);
}

Bytes Fp::ToBytes() const {
  return ToBigInt().ToBytesPadded(field_->element_bytes());
}

Fp Fp::FromBytes(const FpField* f, ByteSpan b) {
  if (b.size() != f->element_bytes()) {
    throw Error("Fp::FromBytes: bad length");
  }
  BigInt v = BigInt::FromBytes(b);
  if (v >= f->p()) throw Error("Fp::FromBytes: value out of range");
  return FromBigInt(f, v);
}

Fp Fp::operator+(const Fp& o) const {
  // Montgomery form is additive: (aR + bR) mod p = (a+b)R mod p.
  const FpLimbs& p = field_->modulus_limbs();
  FpLimbs sum{}, diff{};
  u64 carry = 0, borrow = 0;
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
    u128 s = static_cast<u128>(v_[i]) + o.v_[i] + carry;
    sum[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
    u128 d = static_cast<u128>(sum[i]) - p[i] - borrow;
    diff[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // sum − p is the answer unless it borrowed past a carry-free sum; the
  // choice is a mask, so secret operands take no data-dependent branch.
  const u64 keep_sum = u64{0} - (borrow & (carry ^ 1));
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
    diff[i] = (sum[i] & keep_sum) | (diff[i] & ~keep_sum);
  }
  return Fp(field_, diff);
}

Fp Fp::operator-(const Fp& o) const {
  const FpLimbs& p = field_->modulus_limbs();
  FpLimbs diff{};
  u64 borrow = 0;
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
    u128 d = static_cast<u128>(v_[i]) - o.v_[i] - borrow;
    diff[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  // Add p back under a mask when the difference went negative.
  const u64 mask = u64{0} - borrow;
  u64 carry = 0;
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
    u128 s = static_cast<u128>(diff[i]) + (p[i] & mask) + carry;
    diff[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return Fp(field_, diff);
}

Fp Fp::operator*(const Fp& o) const {
  FpLimbs out{};
  field_->MulMont(out, v_, o.v_);
  return Fp(field_, out);
}

Fp Fp::Neg() const { return Zero(field_) - *this; }

void Fp::CMov(const Fp& o, std::uint64_t mask) {
  for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
    v_[i] = (v_[i] & ~mask) | (o.v_[i] & mask);
  }
}

Fp Fp::Inverse() const {
  if (IsZero()) throw Error("Fp::Inverse: zero has no inverse");
  return Pow(field_->inverse_exp());
}

Fp Fp::Pow(const BigInt& e) const {
  return WindowedPow(*this, One(field_), e);
}

bool Fp::Sqrt(Fp* out) const {
  if (IsZero()) {
    *out = *this;
    return true;
  }
  Fp candidate = Pow(field_->sqrt_exp());
  if (candidate.Square() == *this) {
    *out = candidate;
    return true;
  }
  return false;
}

// --------------------------- Fp2 ---------------------------

bool Fp2::IsOne() const {
  return b_.IsZero() && a_ == Fp::One(a_.field());
}

Fp2 Fp2::operator*(const Fp2& o) const {
  // Karatsuba: 3 Fp multiplications.
  Fp ac = a_ * o.a_;
  Fp bd = b_ * o.b_;
  Fp cross = (a_ + b_) * (o.a_ + o.b_);
  return Fp2(ac - bd, cross - ac - bd);
}

Fp2 Fp2::Square() const {
  // (a+bi)^2 = (a+b)(a-b) + 2ab·i
  Fp re = (a_ + b_) * (a_ - b_);
  Fp ab = a_ * b_;
  return Fp2(re, ab + ab);
}

Fp2 Fp2::Inverse() const {
  // (a+bi)^-1 = (a-bi) / (a² + b²)
  Fp norm = a_.Square() + b_.Square();
  Fp ninv = norm.Inverse();
  return Fp2(a_ * ninv, b_.Neg() * ninv);
}

Fp2 Fp2::Pow(const BigInt& e) const {
  return WindowedPow(*this, One(a_.field()), e);
}

Bytes Fp2::ToBytes() const {
  return Concat(a_.ToBytes(), b_.ToBytes());
}

Fp2 Fp2::FromBytes(const FpField* f, ByteSpan bytes) {
  std::size_t eb = f->element_bytes();
  if (bytes.size() != 2 * eb) throw Error("Fp2::FromBytes: bad length");
  return Fp2(Fp::FromBytes(f, bytes.subspan(0, eb)),
             Fp::FromBytes(f, bytes.subspan(eb)));
}

}  // namespace reed::pairing
