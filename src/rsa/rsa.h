// RSA key generation and raw RSA operations (textbook RSA over our bigint),
// with CRT acceleration for the private operation.
//
// REED uses RSA in two places, both as the paper prescribes:
//  * the key manager's system-wide key pair for the blind-signature OPRF
//    (DupLESS-style MLE key generation; 1024-bit default, as in §V), and
//  * per-user derivation key pairs for RSA key regression (§IV-C).
// Raw (unpadded) RSA is correct in both constructions: the OPRF applies a
// full-domain hash before signing, and key regression winds full-domain
// states.
#pragma once

#include "bigint/bigint.h"
#include "crypto/random.h"
#include "util/secret.h"

namespace reed::rsa {

using bigint::BigInt;

struct RsaPublicKey {
  BigInt n;
  BigInt e;

  std::size_t ByteLength() const { return (n.BitLength() + 7) / 8; }
};

struct RsaPrivateKey {
  RsaPublicKey pub;
  BigInt d;
  // CRT components: private ops run ~4x faster via the two half-size
  // exponentiations.
  BigInt p, q, dp, dq, qinv;
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

// Generates an RSA key pair with an n of exactly `bits` bits, e = 65537.
[[nodiscard]] RsaKeyPair GenerateKeyPair(std::size_t bits, crypto::Rng& rng);

// The public operation m ↦ m^e mod n with the Montgomery context for n
// built once. Key objects that apply one key many times (the OPRF client,
// key-regression members) hold one of these.
class RsaPublicContext {
 public:
  explicit RsaPublicContext(RsaPublicKey key);

  const RsaPublicKey& key() const { return key_; }
  const bigint::Montgomery& mont() const { return mont_; }

  // m^e mod n; m must be < n.
  [[nodiscard]] BigInt Apply(const BigInt& m) const;

 private:
  RsaPublicKey key_;
  bigint::Montgomery mont_;
};

// The private operation m ↦ m^d mod n via CRT, with the contexts for p and
// q built once. m mod p, m mod q and Garner's recombination all run through
// those contexts (no long division), and both half exponentiations walk
// the full width of their prime, so their timing does not depend on dp/dq.
class RsaPrivateContext {
 public:
  explicit RsaPrivateContext(const RsaPrivateKey& key);

  const RsaPublicKey& public_key() const { return pub_; }

  // m^d mod n; m must be < n.
  [[nodiscard]] BigInt Apply(const BigInt& m) const;

 private:
  RsaPublicKey pub_;
  BigInt q_, dp_, dq_, qinv_;
  bigint::Montgomery mont_p_;
  bigint::Montgomery mont_q_;
};

// m^e mod n; m must be < n. Builds a context per call: hold an
// RsaPublicContext to apply one key repeatedly.
[[nodiscard]] BigInt PublicApply(const RsaPublicKey& key, const BigInt& m);

// m^d mod n via CRT; m must be < n. Builds the contexts per call: hold an
// RsaPrivateContext to apply one key repeatedly.
[[nodiscard]] BigInt PrivateApply(const RsaPrivateKey& key, const BigInt& m);

// Full-domain hash of `data` into [0, n): SHA-256 expanded with a counter to
// the modulus width, then reduced. Used by the OPRF and key regression.
[[nodiscard]] BigInt FullDomainHash(ByteSpan data, const BigInt& n);

// Public-key serialization (length-prefixed n ‖ e); key-state records carry
// the owner's public derivation key in this form.
[[nodiscard]] Bytes SerializePublicKey(const RsaPublicKey& key);
[[nodiscard]] RsaPublicKey DeserializePublicKey(ByteSpan blob);

// Full key-pair serialization (all CRT components) — identity bundles and
// key-manager state files use this. The blob IS the private key, so it is
// Secret-typed: persisting it requires a visible Declassify at the caller.
[[nodiscard]] Secret SerializeKeyPair(const RsaKeyPair& keys);
[[nodiscard]] RsaKeyPair DeserializeKeyPair(const Secret& blob);

}  // namespace reed::rsa
