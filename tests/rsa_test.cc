// RSA, blind-signature OPRF, and key-regression tests.
#include <gtest/gtest.h>

#include "crypto/random.h"
#include "crypto/sha256.h"
#include "rsa/blind_signature.h"
#include "rsa/key_regression.h"
#include "rsa/rsa.h"

namespace reed::rsa {
namespace {

using bigint::BigInt;
using crypto::DeterministicRng;

// 512-bit keys keep the test suite fast; key sizes are orthogonal to the
// logic under test (benches use the paper's 1024-bit keys).
RsaKeyPair TestKeyPair(std::uint64_t seed = 100) {
  DeterministicRng rng(seed);
  return GenerateKeyPair(512, rng);
}

TEST(RsaTest, KeyPairHasRequestedModulusLength) {
  RsaKeyPair kp = TestKeyPair();
  EXPECT_EQ(kp.pub.n.BitLength(), 512u);
  EXPECT_EQ(kp.pub.e.ToU64(), 65537u);
  EXPECT_EQ(kp.pub.n, kp.priv.p * kp.priv.q);
}

TEST(RsaTest, PublicPrivateRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  DeterministicRng rng(101);
  for (int i = 0; i < 5; ++i) {
    BigInt m = BigInt::Random(rng, kp.pub.n);
    EXPECT_EQ(PrivateApply(kp.priv, PublicApply(kp.pub, m)), m);
    EXPECT_EQ(PublicApply(kp.pub, PrivateApply(kp.priv, m)), m);
  }
}

TEST(RsaTest, CrtMatchesDirectExponentiation) {
  RsaKeyPair kp = TestKeyPair();
  DeterministicRng rng(102);
  BigInt m = BigInt::Random(rng, kp.pub.n);
  EXPECT_EQ(PrivateApply(kp.priv, m), BigInt::PowMod(m, kp.priv.d, kp.pub.n));
}

TEST(RsaTest, RejectsOutOfRangeMessages) {
  RsaKeyPair kp = TestKeyPair();
  EXPECT_THROW(PublicApply(kp.pub, kp.pub.n), Error);
  EXPECT_THROW(PrivateApply(kp.priv, kp.pub.n + BigInt(1)), Error);
}

TEST(RsaTest, RejectsBadKeySizes) {
  DeterministicRng rng(103);
  EXPECT_THROW(GenerateKeyPair(100, rng), Error);  // too small
  EXPECT_THROW(GenerateKeyPair(513, rng), Error);  // odd
}

TEST(RsaTest, FullDomainHashIsDeterministicAndInRange) {
  RsaKeyPair kp = TestKeyPair();
  BigInt h1 = FullDomainHash(ToBytes("chunk-fingerprint"), kp.pub.n);
  BigInt h2 = FullDomainHash(ToBytes("chunk-fingerprint"), kp.pub.n);
  BigInt h3 = FullDomainHash(ToBytes("other-fingerprint"), kp.pub.n);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
  EXPECT_LT(h1, kp.pub.n);
}

TEST(RsaTest, KeyPairSerializationRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  Secret blob = SerializeKeyPair(kp);
  RsaKeyPair back = DeserializeKeyPair(blob);
  EXPECT_EQ(back.pub.n, kp.pub.n);
  EXPECT_EQ(back.priv.d, kp.priv.d);
  EXPECT_EQ(back.priv.qinv, kp.priv.qinv);
  // Restored key still decrypts.
  DeterministicRng rng(150);
  BigInt m = BigInt::Random(rng, kp.pub.n);
  EXPECT_EQ(PrivateApply(back.priv, PublicApply(back.pub, m)), m);
  // Truncation and inconsistent components are rejected.
  EXPECT_THROW(DeserializeKeyPair(blob.Slice(0, blob.size() - 5)), Error);
}

TEST(RsaTest, PublicKeySerializationRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  RsaPublicKey back = DeserializePublicKey(SerializePublicKey(kp.pub));
  EXPECT_EQ(back.n, kp.pub.n);
  EXPECT_EQ(back.e, kp.pub.e);
  EXPECT_THROW(DeserializePublicKey(Bytes(3, 0)), Error);
}

// --------------------------- blind signatures ---------------------------

TEST(BlindSignatureTest, OprfYieldsDeterministicMleKeys) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(104);

  Bytes fp = ToBytes("fingerprint-of-chunk-A");
  // Two runs with *different* blinding randomness must give the same key —
  // that determinism is what makes MLE keys dedupable.
  BlindedRequest r1 = client.Blind(fp, rng);
  BlindedRequest r2 = client.Blind(fp, rng);
  EXPECT_NE(r1.blinded, r2.blinded);  // blinding hides the fingerprint
  Secret k1 = client.Unblind(r1, server.Sign(r1.blinded));
  Secret k2 = client.Unblind(r2, server.Sign(r2.blinded));
  EXPECT_TRUE(k1.ConstantTimeEquals(k2));
  EXPECT_EQ(k1.size(), 32u);
}

TEST(BlindSignatureTest, DistinctFingerprintsGiveDistinctKeys) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(105);
  BlindedRequest ra = client.Blind(ToBytes("chunk-A"), rng);
  BlindedRequest rb = client.Blind(ToBytes("chunk-B"), rng);
  EXPECT_FALSE(client.Unblind(ra, server.Sign(ra.blinded))
                   .ConstantTimeEquals(client.Unblind(rb, server.Sign(rb.blinded))));
}

TEST(BlindSignatureTest, ForgedSignatureIsRejected) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(106);
  BlindedRequest req = client.Blind(ToBytes("chunk"), rng);
  BigInt forged = BigInt::Random(rng, kp.pub.n);
  EXPECT_THROW(client.Unblind(req, forged), Error);
}

TEST(BlindSignatureTest, ServerRejectsOutOfRangeRequests) {
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  EXPECT_THROW(server.Sign(BigInt(0)), Error);
  EXPECT_THROW(server.Sign(kp.pub.n), Error);
}

TEST(BlindSignatureTest, MatchesDirectFdhSignature) {
  // The unblinded value must equal h^d computed directly — i.e. blinding is
  // transparent to the resulting key.
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  DeterministicRng rng(107);
  Bytes fp = ToBytes("some-fp");
  BlindedRequest req = client.Blind(fp, rng);
  Secret via_oprf = client.Unblind(req, server.Sign(req.blinded));

  BigInt h = FullDomainHash(fp, kp.pub.n);
  BigInt direct = PrivateApply(kp.priv, h);
  Bytes via_direct =
      crypto::Sha256::HashToBytes(direct.ToBytesPadded(kp.pub.ByteLength()));
  EXPECT_TRUE(via_oprf.ConstantTimeEquals(via_direct));
}

// Fills exactly like an inner DeterministicRng, except that draw number
// `forced_draw` (counting Fill calls) returns the fixed bytes `forced`.
class ForcingRng : public crypto::Rng {
 public:
  ForcingRng(std::uint64_t seed, std::size_t forced_draw, Bytes forced)
      : inner_(seed), forced_draw_(forced_draw), forced_(std::move(forced)) {}

  void Fill(MutableByteSpan out) override {
    if (draws_++ == forced_draw_ && out.size() == forced_.size()) {
      std::copy(forced_.begin(), forced_.end(), out.begin());
      return;
    }
    inner_.Fill(out);
  }
  std::size_t draws() const { return draws_; }

 private:
  DeterministicRng inner_;
  std::size_t forced_draw_;
  Bytes forced_;
  std::size_t draws_ = 0;
};

std::vector<Bytes> Fingerprints(std::size_t count) {
  std::vector<Bytes> fps;
  for (std::size_t i = 0; i < count; ++i) {
    fps.push_back(ToBytes("batch-fp-" + std::to_string(i)));
  }
  return fps;
}

TEST(BlindSignatureTest, BlindBatchMatchesPerRequestBlind) {
  // One inversion for the batch, the same r draws in the same order: every
  // request equals what Blind would have made, for batches of 1 and 256.
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  for (std::size_t count : {std::size_t{1}, std::size_t{256}}) {
    std::vector<Bytes> fps = Fingerprints(count);
    std::vector<ByteSpan> spans(fps.begin(), fps.end());
    DeterministicRng batch_rng(108), single_rng(108);
    std::vector<BlindedRequest> batch = client.BlindBatch(spans, batch_rng);
    ASSERT_EQ(batch.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      BlindedRequest single = client.Blind(fps[i], single_rng);
      EXPECT_EQ(batch[i].blinded, single.blinded);
      EXPECT_EQ(batch[i].r_inv, single.r_inv);
      EXPECT_EQ(batch[i].h, single.h);
    }
    for (std::size_t i = 0; i < count; i += 51) {
      EXPECT_NO_THROW((void)client.Unblind(batch[i],
                                           server.Sign(batch[i].blinded)));
    }
  }
  DeterministicRng rng(109);
  EXPECT_TRUE(client.BlindBatch({}, rng).empty());
}

TEST(BlindSignatureTest, BlindBatchRedrawsNonInvertibleR) {
  // Draw 5 of a 16-request batch is forced to 3p, which shares the factor p
  // with N: the batch inversion fails, that r alone is redrawn, and every
  // request still unblinds to the key h^d.
  RsaKeyPair kp = TestKeyPair();
  BlindSignatureServer server(kp.priv);
  BlindSignatureClient client(kp.pub);
  ForcingRng rng(110, 5,
                 (kp.priv.p * BigInt(3)).ToBytesPadded(kp.pub.ByteLength()));
  std::vector<Bytes> fps = Fingerprints(16);
  std::vector<ByteSpan> spans(fps.begin(), fps.end());
  std::vector<BlindedRequest> batch = client.BlindBatch(spans, rng);
  EXPECT_GE(rng.draws(), 17u);  // the forced draw was taken, then replaced
  for (std::size_t i = 0; i < fps.size(); ++i) {
    Secret key = client.Unblind(batch[i], server.Sign(batch[i].blinded));
    BigInt direct = PrivateApply(kp.priv, FullDomainHash(fps[i], kp.pub.n));
    EXPECT_TRUE(key.ConstantTimeEquals(crypto::Sha256::HashToBytes(
        direct.ToBytesPadded(kp.pub.ByteLength()))));
  }
}

TEST(RsaTest, CachedContextsMatchDirectExponentiation) {
  // RsaPrivateContext's CRT path (Montgomery-folded m mod p / m mod q,
  // masked Garner subtraction) against m^d mod n, at 512 and 1024 bits.
  for (std::size_t bits : {512, 1024}) {
    DeterministicRng rng(111 + bits);
    RsaKeyPair kp = GenerateKeyPair(bits, rng);
    RsaPrivateContext priv(kp.priv);
    RsaPublicContext pub(kp.pub);
    std::vector<BigInt> ms = {BigInt(0), BigInt(1), BigInt(2),
                              kp.pub.n - BigInt(1), kp.priv.p, kp.priv.q};
    for (int i = 0; i < 6; ++i) ms.push_back(BigInt::Random(rng, kp.pub.n));
    for (const BigInt& m : ms) {
      BigInt s = priv.Apply(m);
      EXPECT_EQ(s, BigInt::PowMod(m, kp.priv.d, kp.pub.n));
      EXPECT_EQ(pub.Apply(s), m);
    }
    EXPECT_THROW((void)priv.Apply(kp.pub.n), Error);
    EXPECT_THROW((void)pub.Apply(kp.pub.n), Error);
  }
}

// --------------------------- key regression ---------------------------

TEST(KeyRegressionTest, UnwindInvertsWind) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  KeyRegressionMember member(kp.pub);
  DeterministicRng rng(108);

  rsa::KeyState st0 = owner.GenesisState(rng);
  rsa::KeyState st1 = owner.Wind(st0);
  rsa::KeyState st2 = owner.Wind(st1);
  EXPECT_EQ(st2.version, 2u);

  rsa::KeyState back1 = member.Unwind(st2);
  EXPECT_EQ(back1.version, 1u);
  EXPECT_EQ(back1.value, st1.value);
  rsa::KeyState back0 = member.Unwind(back1);
  EXPECT_EQ(back0.value, st0.value);
}

TEST(KeyRegressionTest, UnwindToWalksMultipleVersions) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  KeyRegressionMember member(kp.pub);
  DeterministicRng rng(109);

  rsa::KeyState st = owner.GenesisState(rng);
  rsa::KeyState genesis = st;
  for (int i = 0; i < 5; ++i) st = owner.Wind(st);
  EXPECT_EQ(member.UnwindTo(st, 0).value, genesis.value);
  EXPECT_EQ(member.UnwindTo(st, 5).value, st.value);
  EXPECT_THROW(member.UnwindTo(st, 6), Error);
}

TEST(KeyRegressionTest, CannotUnwindBelowGenesis) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  KeyRegressionMember member(kp.pub);
  DeterministicRng rng(110);
  EXPECT_THROW(member.Unwind(owner.GenesisState(rng)), Error);
}

TEST(KeyRegressionTest, FileKeysDifferAcrossVersions) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  DeterministicRng rng(111);
  rsa::KeyState st0 = owner.GenesisState(rng);
  rsa::KeyState st1 = owner.Wind(st0);
  EXPECT_EQ(st0.DeriveFileKey().size(), 32u);
  EXPECT_FALSE(st0.DeriveFileKey().ConstantTimeEquals(st1.DeriveFileKey()));
  EXPECT_TRUE(st0.DeriveFileKey().ConstantTimeEquals(st0.DeriveFileKey()));
}

TEST(KeyRegressionTest, SerializationRoundTrip) {
  RsaKeyPair kp = TestKeyPair();
  KeyRegressionOwner owner(kp);
  DeterministicRng rng(112);
  rsa::KeyState st = owner.Wind(owner.GenesisState(rng));
  Secret blob = st.Serialize(kp.pub);
  rsa::KeyState back = rsa::KeyState::Deserialize(blob, kp.pub);
  EXPECT_EQ(back.version, st.version);
  EXPECT_EQ(back.value, st.value);
  EXPECT_THROW(
      rsa::KeyState::Deserialize(blob.Slice(0, blob.size() - 1), kp.pub),
      Error);
}

}  // namespace
}  // namespace reed::rsa
