#include "rsa/blind_signature.h"

#include "crypto/sha256.h"

namespace reed::rsa {

BlindedRequest BlindSignatureClient::Blind(ByteSpan fingerprint,
                                           crypto::Rng& rng) const {
  return BlindBatch(std::span<const ByteSpan>(&fingerprint, 1), rng).front();
}

std::vector<BlindedRequest> BlindSignatureClient::BlindBatch(
    std::span<const ByteSpan> fingerprints, crypto::Rng& rng) const {
  const BigInt& n = ctx_.key().n;
  const bigint::Montgomery& mont = ctx_.mont();
  const std::size_t count = fingerprints.size();
  std::vector<BlindedRequest> reqs(count);
  if (count == 0) return reqs;
  auto draw_r = [&] {
    for (;;) {
      BigInt r = BigInt::Random(rng, n);
      if (!r.IsZero()) return r;
    }
  };
  std::vector<BigInt> r(count);
  for (std::size_t i = 0; i < count; ++i) {
    reqs[i].h = FullDomainHash(fingerprints[i], n);
    r[i] = draw_r();
  }

  // prefix[i] = r_0 ⋯ r_i in Montgomery form. One inversion of the whole
  // product, then each r_i⁻¹ = (r_0 ⋯ r_i)⁻¹ · (r_0 ⋯ r_{i−1}) walking back.
  std::vector<BigInt> r_mont(count), prefix(count);
  for (;;) {
    for (std::size_t i = 0; i < count; ++i) {
      r_mont[i] = mont.ToMont(r[i]);
      prefix[i] = i == 0 ? r_mont[i] : mont.MulMont(prefix[i - 1], r_mont[i]);
    }
    std::optional<BigInt> total_inv =
        BigInt::TryInverseModOdd(mont.FromMont(prefix.back()), n);
    if (total_inv.has_value()) {
      BigInt inv = mont.ToMont(*total_inv);  // (r_0 ⋯ r_i)⁻¹, i = count − 1
      for (std::size_t i = count; i-- > 0;) {
        reqs[i].r_inv =
            mont.FromMont(i == 0 ? inv : mont.MulMont(inv, prefix[i - 1]));
        if (i != 0) inv = mont.MulMont(inv, r_mont[i]);
      }
      break;
    }
    // Some r shares a factor with N (negligible for a real key; it would
    // factor N): redraw exactly those and invert again.
    for (std::size_t i = 0; i < count; ++i) {
      if (!BigInt::Gcd(r[i], n).IsOne()) r[i] = draw_r();
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    // Montgomery(r^e) times plain h is the plain product h · r^e mod N.
    reqs[i].blinded =
        mont.MulMont(mont.PowMont(r_mont[i], ctx_.key().e), reqs[i].h);
  }
  return reqs;
}

Secret BlindSignatureClient::Unblind(const BlindedRequest& request,
                                     const BigInt& signature) const {
  const bigint::Montgomery& mont = ctx_.mont();
  BigInt s = mont.MulMont(mont.ToMont(signature), request.r_inv);
  // Verify s^e == h before trusting the key manager's answer; both sides
  // are compared in (canonical) Montgomery form.
  if (mont.PowMont(mont.ToMont(s), ctx_.key().e) != mont.ToMont(request.h)) {
    throw Error("BlindSignatureClient: signature verification failed");
  }
  // MLE key = H(h^d): a fixed-width encoding keeps hashing canonical.
  return Secret(crypto::Sha256::HashToBytes(
      s.ToBytesPadded(ctx_.key().ByteLength())));
}

BigInt BlindSignatureServer::Sign(const BigInt& blinded) const {
  if (blinded.IsZero() || blinded >= ctx_.public_key().n) {
    throw Error("BlindSignatureServer: blinded value out of range");
  }
  return ctx_.Apply(blinded);
}

}  // namespace reed::rsa
