// RSA blind-signature OPRF — the DupLESS MLE key-generation protocol
// (paper §II-A, §V "Key manager").
//
// Flow per chunk fingerprint fp:
//   client:  h = FDH(fp, N); picks random r; sends x = h * r^e mod N
//   manager: y = x^d mod N                (cannot see fp: x is blinded)
//   client:  s = y * r^{-1} mod N = h^d;  verifies s^e == h;  K_M = H(s)
//
// The manager signs without learning the fingerprint (obliviousness), and
// the client cannot compute h^d alone (the MLE key space looks random to
// anyone without d, defeating offline brute force on predictable chunks).
#pragma once

#include <span>
#include <vector>

#include "rsa/rsa.h"
#include "util/secret.h"

namespace reed::rsa {

// Client-side state for one blinded request (keeps r to unblind later).
struct BlindedRequest {
  BigInt blinded;   // x = h * r^e mod N, sent to the key manager
  BigInt r_inv;     // r^{-1} mod N, kept locally
  BigInt h;         // FDH(fp), kept locally for verification
};

class BlindSignatureClient {
 public:
  explicit BlindSignatureClient(RsaPublicKey manager_key)
      : ctx_(std::move(manager_key)) {}

  const RsaPublicKey& manager_key() const { return ctx_.key(); }

  // Blinds a chunk fingerprint for the key manager.
  [[nodiscard]] BlindedRequest Blind(ByteSpan fingerprint, crypto::Rng& rng) const;

  // Blinds a batch: one r per fingerprint, drawn in order (so a batch draws
  // exactly what one Blind per fingerprint would), and all the r⁻¹ from one
  // modular inversion (Montgomery's trick). An r that shares a factor with
  // N is redrawn.
  [[nodiscard]] std::vector<BlindedRequest> BlindBatch(
      std::span<const ByteSpan> fingerprints, crypto::Rng& rng) const;

  // Unblinds the manager's signature and verifies it; returns the 32-byte
  // MLE key H(h^d) as a Secret. Throws Error if the signature does not
  // verify.
  [[nodiscard]] Secret Unblind(const BlindedRequest& request, const BigInt& signature) const;

 private:
  RsaPublicContext ctx_;
};

class BlindSignatureServer {
 public:
  explicit BlindSignatureServer(const RsaPrivateKey& key) : ctx_(key) {}

  const RsaPublicKey& public_key() const { return ctx_.public_key(); }

  // Signs a blinded value: y = x^d mod N. The server never sees h or fp.
  [[nodiscard]] BigInt Sign(const BigInt& blinded) const;

 private:
  RsaPrivateContext ctx_;
};

}  // namespace reed::rsa
