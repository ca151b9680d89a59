// Differential oracle: the bit-by-bit square-and-multiply ladder that
// Montgomery::PowMont used before the fixed 4-bit window. It multiplies
// only where the exponent has a one bit, so its time follows the secret
// exponent; the timing test shows the difference. Kept only in tests/,
// where the windowed exponentiation must match it bit for bit.
#pragma once

#include "bigint/bigint.h"

namespace reed::bigint::oracle {

// base_mont^exp in Montgomery form, for base_mont < n.
inline BigInt LadderPowMont(const Montgomery& mont, const BigInt& base_mont,
                            const BigInt& exp) {
  BigInt acc = mont.ToMont(BigInt(1));
  for (std::size_t i = exp.BitLength(); i-- > 0;) {
    acc = mont.MulMont(acc, acc);
    if (exp.Bit(i)) acc = mont.MulMont(acc, base_mont);
  }
  return acc;
}

}  // namespace reed::bigint::oracle
