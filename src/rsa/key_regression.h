// RSA-based key regression (Fu, Kamara, Kohno — NDSS 2006), the KR-RSA
// construction REED uses for lazy revocation (paper §IV-C).
//
// A key-state sequence is derived under the owner's RSA *derivation* key
// pair: winding forward requires the private key (st_{i+1} = st_i^d mod N),
// while unwinding backward needs only the public key (st_i = st_{i+1}^e
// mod N). Handing a user the current state therefore grants access to every
// *past* state (and the files keyed by them) but to no future state — which
// is exactly lazy revocation: after a rekey, revoked users hold states that
// cannot reach the new one.
#pragma once

#include <cstdint>

#include "rsa/rsa.h"
#include "util/secret.h"

namespace reed::rsa {

// A key state: the version number plus the state value in [0, N).
struct KeyState {
  std::uint64_t version = 0;
  BigInt value;

  // Serialized (version || padded value) as a Secret; the blob grants
  // access to this and every past file key, so it only crosses the wire
  // inside an ABE or wrap-key envelope. The ABE layer wraps this blob.
  [[nodiscard]] Secret Serialize(const RsaPublicKey& derivation_key) const;
  [[nodiscard]] static KeyState Deserialize(const Secret& blob,
                                            const RsaPublicKey& derivation_key);

  // The symmetric file key for this state: H(state), as in §IV-C.
  [[nodiscard]] Secret DeriveFileKey() const;
};

// Owner side: holds the private derivation key and can wind forward.
class KeyRegressionOwner {
 public:
  explicit KeyRegressionOwner(RsaKeyPair derivation_keys)
      : keys_(std::move(derivation_keys)), ctx_(keys_.priv) {}

  const RsaPublicKey& public_key() const { return keys_.pub; }

  // Fresh random initial state (version 0).
  [[nodiscard]] KeyState GenesisState(crypto::Rng& rng) const;

  // st_{i+1} = st_i^d mod N.
  [[nodiscard]] KeyState Wind(const KeyState& state) const;

 private:
  RsaKeyPair keys_;
  RsaPrivateContext ctx_;
};

// Member side: holds only the public derivation key and can unwind.
class KeyRegressionMember {
 public:
  explicit KeyRegressionMember(RsaPublicKey public_derivation_key)
      : ctx_(std::move(public_derivation_key)) {}

  // st_i = st_{i+1}^e mod N; throws if already at version 0.
  [[nodiscard]] KeyState Unwind(const KeyState& state) const;

  // Unwinds down to `target_version` (<= state.version).
  [[nodiscard]] KeyState UnwindTo(const KeyState& state, std::uint64_t target_version) const;

 private:
  RsaPublicContext ctx_;
};

}  // namespace reed::rsa
