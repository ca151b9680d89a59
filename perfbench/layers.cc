#include "layers.h"

#include <algorithm>
#include <chrono>

#include "abe/cpabe.h"
#include "aont/reed_cipher.h"
#include "chunk/chunker.h"
#include "chunk/fingerprint.h"
#include "crypto/sha256.h"
#include "rsa/blind_signature.h"
#include "rsa/key_regression.h"

namespace perfbench {

using namespace reed;

namespace {

// Median wall time of `reps` calls of fn(i), in seconds.
template <typename F>
double MedianSeconds(std::size_t reps, F&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn(i);
    t.push_back(std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

}  // namespace

std::vector<LayerMetric> ReplayLayers(const LayerInputs& in) {
  std::vector<LayerMetric> out;
  // Per-call latency: the median call, scaled to `unit` (1e6 = us).
  auto latency = [&](const char* name, double scale, const char* unit,
                     std::size_t reps, auto&& fn) {
    out.push_back({name, scale * MedianSeconds(reps, fn), unit});
  };
  // Throughput: `bytes` per median call.
  auto rate = [&](const char* name, std::size_t bytes, std::size_t reps,
                  auto&& fn) {
    out.push_back({name,
                   static_cast<double>(bytes) / 1e6 / MedianSeconds(reps, fn),
                   "MB/s"});
  };
  const Bytes& data = in.sample;
  crypto::DeterministicRng rng(0x1a7e5);

  // chunk, crypto
  chunk::RabinChunker chunker(chunk::PaperChunking(8 * 1024));
  std::vector<chunk::ChunkRef> refs = chunker.Split(data);
  rate("chunk.split_mbps", data.size(), 5,
       [&](std::size_t) { (void)chunker.Split(data); });
  rate("crypto.sha256_mbps", data.size(), 9,
       [&](std::size_t) { (void)crypto::Sha256::Hash(data); });

  // aont: CAONT encode/decode of the chunks under their MLE-style keys, and
  // stub-file re-encryption (decrypt, then encrypt under a new key).
  const aont::ReedCipher cipher(aont::Scheme::kEnhanced);
  std::vector<ByteSpan> chunks;
  std::vector<Secret> keys;
  std::vector<chunk::Fingerprint> fps;
  for (const chunk::ChunkRef& r : refs) {
    chunks.push_back(ByteSpan(data).subspan(r.offset, r.length));
    keys.emplace_back(crypto::Sha256::HashToBytes(chunks.back()));
    fps.push_back(chunk::Fingerprint::Of(chunks.back()));
  }
  std::vector<aont::SealedChunk> sealed(chunks.size());
  rate("aont.encode_mbps", data.size(), 3, [&](std::size_t) {
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      sealed[i] = cipher.Encrypt(chunks[i], keys[i]);
    }
  });
  rate("aont.decode_mbps", data.size(), 3, [&](std::size_t) {
    for (const aont::SealedChunk& s : sealed) {
      (void)cipher.Decrypt(s.trimmed_package, s.stub);
    }
  });
  const Secret old_key = rng.GenerateSecret(32);
  const Secret new_key = rng.GenerateSecret(32);
  const Bytes stub_file = Declassify(
      aont::EncryptStubFile(rng.GenerateSecret(in.stub_file_bytes), old_key,
                            rng),
      "benchmark replay input");
  constexpr std::size_t kStubReps = 16;
  rate("aont.stub_mbps", in.stub_file_bytes * kStubReps, 5, [&](std::size_t) {
    for (std::size_t i = 0; i < kStubReps; ++i) {
      Secret plain = aont::DecryptStubFile(stub_file, old_key);
      (void)aont::EncryptStubFile(plain, new_key, rng);
    }
  });

  // rsa / bigint: the OPRF steps on this workload's fingerprints, with a
  // 1024-bit key as the key manager uses.
  const rsa::RsaKeyPair kp = rsa::GenerateKeyPair(1024, rng);
  const rsa::BlindSignatureClient blind_client(kp.pub);
  const rsa::BlindSignatureServer signer(kp.priv);
  constexpr std::size_t kReps = 16;
  std::vector<rsa::BlindedRequest> reqs(kReps);
  std::vector<bigint::BigInt> sigs(kReps);
  auto fp = [&](std::size_t i) { return fps[i % fps.size()].AsSpan(); };
  latency("rsa.blind_us", 1e6, "us", kReps,
          [&](std::size_t i) { reqs[i] = blind_client.Blind(fp(i), rng); });
  latency("rsa.sign_us", 1e6, "us", kReps,
          [&](std::size_t i) { sigs[i] = signer.Sign(reqs[i].blinded); });
  latency("rsa.unblind_us", 1e6, "us", kReps, [&](std::size_t i) {
    (void)blind_client.Unblind(reqs[i], sigs[i]);
  });
  latency("bigint.modexp_us", 1e6, "us", 8, [&](std::size_t i) {
    (void)bigint::BigInt::PowMod(reqs[i].blinded, kp.priv.d, kp.pub.n);
  });

  // rsa key regression: the owner's wind and a member's unwind.
  const rsa::KeyRegressionOwner owner(kp);
  const rsa::KeyRegressionMember member(kp.pub);
  std::vector<rsa::KeyState> states{owner.GenesisState(rng)};
  latency("rsa.wind_us", 1e6, "us", kReps, [&](std::size_t) {
    states.push_back(owner.Wind(states.back()));
  });
  latency("rsa.unwind_us", 1e6, "us", kReps,
          [&](std::size_t i) { (void)member.Unwind(states[i + 1]); });

  // pairing / abe at this workload's policy size; the decrypting user's
  // leaf comes last, as ReedClient appends the owner to every policy.
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  const pairing::G1Point p = pairing->HashToGroup(fp(0));
  const pairing::G1Point q = pairing->HashToGroup(fp(1));
  latency("pairing.pair_ms", 1e3, "ms", 5,
          [&](std::size_t) { (void)pairing->Pair(p, q); });
  const abe::CpAbe cpabe(pairing);
  const abe::CpAbe::SetupResult setup = cpabe.Setup(rng);
  std::vector<std::string> users;
  for (std::size_t i = 1; i < in.policy_users; ++i) {
    users.push_back("user-" + std::to_string(i));
  }
  users.push_back("owner");
  const abe::PolicyNode policy = abe::PolicyNode::OrOfUsers(users);
  const abe::PrivateKey sk =
      cpabe.KeyGen(setup.pk, setup.mk, {"user:owner"}, rng);
  const Secret state = states.back().Serialize(kp.pub);
  Bytes wrapped;
  latency("abe.encrypt_ms", 1e3, "ms", 3, [&](std::size_t) {
    wrapped = Declassify(cpabe.EncryptBytes(setup.pk, policy, state, rng),
                         "benchmark replay input");
  });
  latency("abe.decrypt_ms", 1e3, "ms", 3,
          [&](std::size_t) { (void)cpabe.DecryptBytes(sk, wrapped); });
  return out;
}

}  // namespace perfbench
