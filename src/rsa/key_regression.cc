#include "rsa/key_regression.h"

#include "crypto/sha256.h"

namespace reed::rsa {

Secret KeyState::Serialize(const RsaPublicKey& derivation_key) const {
  Bytes out;
  AppendU64(out, version);
  Append(out, value.ToBytesPadded(derivation_key.ByteLength()));
  return Secret(std::move(out));
}

KeyState KeyState::Deserialize(const Secret& blob,
                               const RsaPublicKey& derivation_key) {
  ByteSpan raw = blob.ExposeForCrypto();
  std::size_t want = 8 + derivation_key.ByteLength();
  if (raw.size() != want) {
    throw Error("KeyState::Deserialize: bad blob length");
  }
  KeyState st;
  st.version = GetU64(raw);
  st.value = BigInt::FromBytes(raw.subspan(8));
  if (st.value >= derivation_key.n) {
    throw Error("KeyState::Deserialize: state out of range");
  }
  return st;
}

Secret KeyState::DeriveFileKey() const {
  // `input` carries the raw key-regression state — wipe it on every path.
  Bytes input = ToBytes("reed/file-key");
  ScopedWipe wipe_input(input);
  AppendU64(input, version);
  Append(input, value.ToBytes());
  return Secret(crypto::Sha256::HashToBytes(input));
}

KeyState KeyRegressionOwner::GenesisState(crypto::Rng& rng) const {
  KeyState st;
  st.version = 0;
  // Avoid the trivial fixed points 0 and 1 of x -> x^d.
  do {
    st.value = BigInt::Random(rng, keys_.pub.n);
  } while (st.value.IsZero() || st.value.IsOne());
  return st;
}

KeyState KeyRegressionOwner::Wind(const KeyState& state) const {
  KeyState next;
  next.version = state.version + 1;
  next.value = ctx_.Apply(state.value);
  return next;
}

KeyState KeyRegressionMember::Unwind(const KeyState& state) const {
  if (state.version == 0) {
    throw Error("KeyRegressionMember: cannot unwind below version 0");
  }
  KeyState prev;
  prev.version = state.version - 1;
  prev.value = ctx_.Apply(state.value);
  return prev;
}

KeyState KeyRegressionMember::UnwindTo(const KeyState& state,
                                       std::uint64_t target_version) const {
  if (target_version > state.version) {
    throw Error("KeyRegressionMember: target version is in the future");
  }
  KeyState cur = state;
  while (cur.version > target_version) cur = Unwind(cur);
  return cur;
}

}  // namespace reed::rsa
