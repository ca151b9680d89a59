#include "pairing/fixed_base.h"

namespace reed::pairing {

namespace {

constexpr std::size_t kWindowBits = 4;

std::uint64_t Digit(const BigInt& k, std::size_t window) {
  const std::size_t bit = window * kWindowBits;
  return (k.Limb(bit / 64) >> (bit % 64)) & 0xF;
}

// All ones when a == b, else zero, without a branch (a, b < 2^63).
std::uint64_t EqMask(std::uint64_t a, std::uint64_t b) {
  return std::uint64_t{0} - (((a ^ b) - 1) >> 63);
}

}  // namespace

G1FixedBase::G1FixedBase(const G1Point& base, const BigInt& order)
    : G1FixedBase(base, order,
                  (order.BitLength() + kWindowBits - 1) / kWindowBits) {}

G1FixedBase G1FixedBase::SingleRow(const G1Point& base, const BigInt& order) {
  return G1FixedBase(base, order, 1);
}

G1FixedBase::G1FixedBase(const G1Point& base, const BigInt& order,
                         std::size_t rows)
    : base_(base),
      order_(order),
      windows_((order.BitLength() + kWindowBits - 1) / kWindowBits),
      rows_(rows) {
  if (base_.is_infinity()) return;
  // 16^i·B for every row (four doublings apart), made affine together.
  std::vector<JacobianPoint> powers{JacobianPoint::FromAffine(base_)};
  for (std::size_t i = 1; i < rows_; ++i) {
    JacobianPoint v = powers.back();
    for (std::size_t d = 0; d < kWindowBits; ++d) v = JacobianDouble(v);
    powers.push_back(v);
  }
  std::vector<G1Point> window_bases = BatchToAffine(powers);
  // j·16^i·B for j = 1..15, then one batched inversion for all of them.
  std::vector<JacobianPoint> entries;
  entries.reserve(rows_ * kDigits);
  for (const G1Point& b : window_bases) {
    JacobianPoint v = JacobianPoint::FromAffine(b);
    entries.push_back(v);
    for (std::size_t j = 2; j <= kDigits; ++j) {
      v = JacobianAddAffine(v, b);
      entries.push_back(v);
    }
  }
  std::vector<G1Point> affine = BatchToAffine(entries);
  table_.reserve(affine.size());
  for (const G1Point& p : affine) table_.push_back({p.x(), p.y()});
}

JacobianPoint G1FixedBase::MulJacobian(const BigInt& k) const {
  if (base_.is_infinity()) return {};
  if (k >= order_) return MulJacobian(k % order_);
  const Fp one = Fp::One(base_.x().field());
  // While acc is still infinity (acc_empty) it holds B as a stand-in: a
  // subgroup point, so the doublings and additions below stay on the
  // curve, and their results are discarded by mask.
  JacobianPoint acc = JacobianPoint::FromAffine(base_);
  std::uint64_t acc_empty = ~std::uint64_t{0};
  // Windows from the top. The comb has a row per window; a single row
  // shifts acc up a window with four doublings instead.
  for (std::size_t i = windows_; i-- > 0;) {
    if (rows_ == 1 && i + 1 != windows_) {
      for (std::size_t d = 0; d < kWindowBits; ++d) acc = JacobianDouble(acc);
    }
    const std::uint64_t digit = Digit(k, i);
    const Entry* row = &table_[(rows_ == 1 ? 0 : i) * kDigits];
    // Scan the whole window; a zero digit keeps entry 1 as a dummy.
    Fp ex = row[0].x, ey = row[0].y;
    for (std::size_t j = 2; j <= kDigits; ++j) {
      const std::uint64_t m = EqMask(digit, j);
      ex.CMov(row[j - 1].x, m);
      ey.CMov(row[j - 1].y, m);
    }
    // acc + (ex, ey) by the mixed-addition formulas with no exceptional
    // cases. In units of 16^i (of 1 for a single row) acc's scalar a is a
    // multiple of 16 and the entry's is a digit 0 < d < 16; a + d is a
    // prefix of k < r, so a ≢ ±d (mod r).
    const Fp z2 = acc.z.Square();
    const Fp h = ex * z2 - acc.x;
    const Fp r = ey * z2 * acc.z - acc.y;
    const Fp h2 = h.Square();
    const Fp h3 = h2 * h;
    const Fp u1h2 = acc.x * h2;
    const Fp x3 = r.Square() - h3 - (u1h2 + u1h2);
    JacobianPoint sum{x3, r * (u1h2 - x3) - acc.y * h3, acc.z * h, false};
    // An empty accumulator takes the entry itself; a zero digit keeps acc.
    sum.x.CMov(ex, acc_empty);
    sum.y.CMov(ey, acc_empty);
    sum.z.CMov(one, acc_empty);
    const std::uint64_t zero_digit = EqMask(digit, 0);
    sum.x.CMov(acc.x, zero_digit);
    sum.y.CMov(acc.y, zero_digit);
    sum.z.CMov(acc.z, zero_digit);
    acc = sum;
    acc_empty &= zero_digit;
  }
  // k = 0 leaves acc empty; k = r (reduced above, so only reachable through
  // a non-subgroup base) would end on Z = 0. Both are infinity.
  if (acc_empty != 0 || acc.z.IsZero()) return {};
  return acc;
}

std::size_t G1FixedBase::TableBytes(const BigInt& order) {
  return (order.BitLength() + kWindowBits - 1) / kWindowBits * kDigits *
         sizeof(Entry);
}

GtFixedBase::GtFixedBase(const Fp2& base, const BigInt& order)
    : base_(base),
      order_(order),
      windows_((order.BitLength() + kWindowBits - 1) / kWindowBits) {
  const Fp2 one = Fp2::One(base_.a().field());
  table_.reserve(windows_ * kDigits);
  Fp2 b = base_;  // base^(16^i)
  for (std::size_t i = 0; i < windows_; ++i) {
    table_.push_back(one);
    for (std::size_t j = 1; j < kDigits; ++j) table_.push_back(table_.back() * b);
    for (std::size_t d = 0; d < kWindowBits; ++d) b = b.Square();
  }
}

Fp2 GtFixedBase::Pow(const BigInt& k) const {
  if (k >= order_) return Pow(k % order_);
  Fp2 acc = table_[0];  // 1
  for (std::size_t i = 0; i < windows_; ++i) {
    const std::uint64_t digit = Digit(k, i);
    const Fp2* row = &table_[i * kDigits];
    Fp2 sel = row[0];
    for (std::size_t j = 1; j < kDigits; ++j) sel.CMov(row[j], EqMask(digit, j));
    acc = acc * sel;
  }
  return acc;
}

}  // namespace reed::pairing
