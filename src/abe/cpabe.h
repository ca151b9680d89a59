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
#include "pairing/fixed_base.h"
#include "pairing/pairing.h"
#include "util/lru_cache.h"
#include "util/secret.h"

namespace reed::abe {

using bigint::BigInt;
using pairing::Fp2;
using pairing::G1Point;
using pairing::TypeAPairing;

// Fixed-base tables for the three bases of one public key (about 90 KB
// each), built once when Setup or DeserializePublicKey makes the key, and
// shared by every copy of it.
struct PublicKeyTables {
  pairing::G1FixedBase g;
  pairing::G1FixedBase h;
  pairing::GtFixedBase e_gg_alpha;
};

struct PublicKey {
  G1Point g;        // group generator
  G1Point h;        // g^β
  Fp2 e_gg_alpha;   // e(g,g)^α
  // Built from the three fields above; a key assembled by hand, or whose
  // fields were changed after, has its tables rebuilt on use.
  std::shared_ptr<const PublicKeyTables> tables;
};

struct MasterKey {
  BigInt beta;
  G1Point g_alpha;  // g^α
};

// Each key point also carries its Miller lines, prepared once by KeyGen or
// DeserializePrivateKey (about 50 KB per point). They are as secret as the
// key: they stay inside abe/pairing, are wiped with the last copy, and are
// never serialized. A point without matching lines (a key assembled or
// edited by hand) is prepared on use.
struct AttributeKey {
  G1Point d;        // D_j  = g^t · H(j)^{t_j}
  G1Point d_prime;  // D'_j = g^{t_j}
  std::shared_ptr<const pairing::G1Prepared> d_lines;            // D_j
  std::shared_ptr<const pairing::G1Prepared> neg_d_prime_lines;  // −D'_j
};

struct PrivateKey {
  G1Point d;  // g^{(α+t)/β}
  std::shared_ptr<const pairing::G1Prepared> d_lines;
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

  // Byte budget of the attribute-table cache: 96 combs.
  static constexpr std::size_t kAttrCacheBytes = 8u << 20;
  // Byte budget of the hashed-point cache behind it: 4096 points, so a
  // policy too wide for the combs still hashes each attribute once.
  static constexpr std::size_t kAttrPointCacheBytes = 1u << 20;
  using AttributeCache =
      LruCache<std::string, std::shared_ptr<const pairing::G1FixedBase>>;
  [[nodiscard]] AttributeCache::Stats AttributeCacheStats() const {
    return attr_cache_.stats();
  }

 private:
  // The fixed-base table of H(attribute), memoized per instance in a
  // bounded LRU: attribute points recur across keygen/encrypt calls (every
  // rekey re-encrypts under user attributes). An evicted attribute is
  // rebuilt from its hash, to the same point. With `keep` false a miss
  // builds a single-row table and caches nothing: a policy with more
  // leaves than the cache holds would otherwise evict each comb before its
  // next use and pay for a comb per leaf per encryption.
  std::shared_ptr<const pairing::G1FixedBase> AttributeTable(
      const std::string& attribute, bool keep = true) const;
  // H(attribute), memoized in its own bounded LRU: hashing to G1 clears
  // the cofactor with a 352-bit scalar multiply.
  G1Point AttributePoint(const std::string& attribute) const;
  // pk.tables when they were built from pk's fields, else fresh ones.
  std::shared_ptr<const PublicKeyTables> Tables(const PublicKey& pk) const;
  std::shared_ptr<const PublicKeyTables> BuildTables(const PublicKey& pk) const;
  // Fills in the Miller lines of every point of `sk`.
  void PrepareKey(PrivateKey& sk) const;

  void ShareSecret(const PolicyNode& node, const BigInt& value,
                   crypto::Rng& rng, std::vector<BigInt>& leaf_shares) const;
  // A leaf a decryption uses: its index in DFS order, the key component
  // for its attribute, and the product of the Lagrange coefficients on its
  // path (mod r), the power its pairings enter the result with.
  struct LeafUse {
    std::size_t leaf;
    const AttributeKey* key;
    BigInt exponent;
  };
  // Plans the decryption of `node` (whose leaves are numbered from
  // `first_leaf`): every gate uses its first `threshold` satisfied
  // children. Which leaves a key uses depends only on its attributes, so
  // this runs before any pairing. False when the key does not satisfy it.
  bool PlanNode(const PolicyNode& node, const PrivateKey& sk,
                const std::vector<std::string>& attributes,
                std::size_t first_leaf, const BigInt& exponent,
                std::vector<LeafUse>& uses) const;

  std::shared_ptr<const TypeAPairing> pairing_;
  std::size_t attr_cache_entries_;  // combs that fit in the budget
  mutable AttributeCache attr_cache_;
  mutable LruCache<std::string, G1Point> attr_points_;
};

}  // namespace reed::abe
