// Ciphertext-policy attribute-based encryption (BSW07), from scratch over
// our Type-A pairing — the primitive REED uses to wrap per-file key states
// so that exactly the authorized users can recover the file key (§IV-C).
//
// Scheme (Bethencourt–Sahai–Waters, IEEE S&P 2007):
//   Setup:    α, β ← Z_r.  PK = (g, h=g^β, e(g,g)^α),  MK = (β, g^α)
//   KeyGen(S): t ← Z_r.  D = g^{(α+t)/β};  per attribute j ∈ S:
//              t_j ← Z_r, D_j = g^t · H(j)^{t_j},  D'_j = g^{t_j}
//   Encrypt(M ∈ GT, T): secret s shared down the access tree T with
//              per-node polynomials; C̃ = M·e(g,g)^{αs}, C = h^s, and per
//              leaf y: C_y = g^{λ_y}, C'_y = H(att(y))^{λ_y}
//   Decrypt:  pair leaf components, recombine shares in the exponent with
//              Lagrange coefficients, divide out e(C, D). All of this runs
//              on raw Miller-loop values; one final exponentiation of their
//              product yields the same GT element (it is a homomorphism).
//
// EncryptBytes/DecryptBytes add the standard hybrid layer: a random GT
// element (a power of e(g,g)^α from the public key) is ABE-encrypted and
// hashed into an AES-256-CTR + HMAC key pair protecting the payload.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "abe/policy.h"
#include "crypto/random.h"
#include "pairing/pairing.h"
#include "util/secret.h"
#include "util/thread_annotations.h"

namespace reed::abe {

using bigint::BigInt;
using pairing::Fp2;
using pairing::G1Point;
using pairing::TypeAPairing;

struct PublicKey {
  G1Point g;        // group generator
  G1Point h;        // g^β
  Fp2 e_gg_alpha;   // e(g,g)^α
};

struct MasterKey {
  BigInt beta;
  G1Point g_alpha;  // g^α
};

struct AttributeKey {
  G1Point d;        // D_j  = g^t · H(j)^{t_j}
  G1Point d_prime;  // D'_j = g^{t_j}
};

struct PrivateKey {
  G1Point d;  // g^{(α+t)/β}
  std::map<std::string, AttributeKey> components;

  [[nodiscard]] std::vector<std::string> Attributes() const;
};

struct CiphertextLeaf {
  G1Point c;        // g^{λ_y}
  G1Point c_prime;  // H(att(y))^{λ_y}
};

struct Ciphertext {
  PolicyNode policy;
  Fp2 c_tilde;  // M · e(g,g)^{αs}
  G1Point c;    // h^s
  // One entry per policy leaf, in DFS order.
  std::vector<CiphertextLeaf> leaves;
};

class CpAbe {
 public:
  explicit CpAbe(std::shared_ptr<const TypeAPairing> pairing);

  const TypeAPairing& pairing() const { return *pairing_; }

  struct SetupResult {
    PublicKey pk;
    MasterKey mk;
  };
  [[nodiscard]] SetupResult Setup(crypto::Rng& rng) const;

  [[nodiscard]] PrivateKey KeyGen(const PublicKey& pk, const MasterKey& mk,
                    const std::vector<std::string>& attributes,
                    crypto::Rng& rng) const;

  // Core scheme over GT elements.
  [[nodiscard]] Ciphertext EncryptElement(const PublicKey& pk, const Fp2& message,
                            const PolicyNode& policy, crypto::Rng& rng) const;
  // nullopt when the key's attributes do not satisfy the policy.
  [[nodiscard]] std::optional<Fp2> DecryptElement(const PrivateKey& sk,
                                    const Ciphertext& ct) const;

  // Hybrid encryption of arbitrary byte strings (ABE + AES-CTR + HMAC).
  // The plaintext is secret by definition (REED wraps key states here); the
  // ciphertext is returned still tainted — declaring it public happens at
  // the client's sanctioned Declassify crossing, not implicitly here.
  [[nodiscard]] Secret EncryptBytes(const PublicKey& pk, const PolicyNode& policy,
                     const Secret& plaintext, crypto::Rng& rng) const;
  // Throws Error on unauthorized key or tampered ciphertext.
  [[nodiscard]] Secret DecryptBytes(const PrivateKey& sk, ByteSpan blob) const;

  // Serialization (ciphertexts are stored in the cloud key store).
  [[nodiscard]] Bytes SerializeCiphertext(const Ciphertext& ct) const;
  [[nodiscard]] Ciphertext DeserializeCiphertext(ByteSpan blob) const;
  // User private keys and the master key are secret material: their blobs
  // are Secret-typed, so persisting one takes a visible Declassify.
  [[nodiscard]] Secret SerializePrivateKey(const PrivateKey& sk) const;
  [[nodiscard]] PrivateKey DeserializePrivateKey(const Secret& blob) const;
  [[nodiscard]] Bytes SerializePublicKey(const PublicKey& pk) const;
  [[nodiscard]] PublicKey DeserializePublicKey(ByteSpan blob) const;
  // Master-key serialization for the attribute authority's state file
  // (reedctl init-org).
  [[nodiscard]] Secret SerializeMasterKey(const MasterKey& mk) const;
  [[nodiscard]] MasterKey DeserializeMasterKey(const Secret& blob) const;

 private:
  // H(attribute) with a per-instance memo: attribute points recur across
  // keygen/encrypt calls (every rekey re-encrypts under user attributes).
  G1Point AttributePoint(const std::string& attribute) const;

  void ShareSecret(const PolicyNode& node, const BigInt& value,
                   crypto::Rng& rng, std::vector<BigInt>& leaf_shares) const;
  // The node's share e(g,g)^{t·q(0)} as a raw Miller-loop value, before the
  // final exponentiation; nullopt when the key does not satisfy the node.
  std::optional<Fp2> DecryptNode(const PolicyNode& node, const PrivateKey& sk,
                                 const Ciphertext& ct,
                                 std::size_t& leaf_index) const;

  std::shared_ptr<const TypeAPairing> pairing_;
  mutable Mutex attr_cache_mu_{LockRank::kAbeAttrCache};
  mutable std::map<std::string, G1Point> attr_cache_
      REED_GUARDED_BY(attr_cache_mu_);
};

}  // namespace reed::abe
