#include "pairing/field.h"

namespace reed::pairing {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

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
  // sum − p is the answer unless it borrowed past a carry-free sum.
  return Fp(field_, (borrow && !carry) ? sum : diff);
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
  if (borrow) {
    u64 carry = 0;
    for (std::size_t i = 0; i < kFpMaxLimbs; ++i) {
      u128 s = static_cast<u128>(diff[i]) + p[i] + carry;
      diff[i] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
  }
  return Fp(field_, diff);
}

Fp Fp::operator*(const Fp& o) const {
  FpLimbs out{};
  field_->MulMont(out, v_, o.v_);
  return Fp(field_, out);
}

Fp Fp::Neg() const {
  if (IsZero()) return *this;
  return Zero(field_) - *this;
}

Fp Fp::Inverse() const {
  if (IsZero()) throw Error("Fp::Inverse: zero has no inverse");
  return Pow(field_->inverse_exp());
}

Fp Fp::Pow(const BigInt& e) const {
  Fp result = One(field_);
  for (std::size_t i = e.BitLength(); i-- > 0;) {
    result = result.Square();
    if (e.Bit(i)) result = result * *this;
  }
  return result;
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
  Fp2 result = One(a_.field());
  for (std::size_t i = e.BitLength(); i-- > 0;) {
    result = result.Square();
    if (e.Bit(i)) result = result * *this;
  }
  return result;
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
