// CP-ABE tests: policy-tree logic, end-to-end encrypt/decrypt over GT and
// bytes, threshold gates, revocation semantics, serialization.
#include <gtest/gtest.h>

#include "abe/cpabe.h"
#include "abe_keystate_fixture.h"
#include "crypto/random.h"
#include "crypto/sha256.h"

namespace reed::abe {
namespace {

using crypto::DeterministicRng;
using pairing::TypeAPairing;
using pairing::TypeAParams;

class CpAbeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pairing_ = std::make_shared<const TypeAPairing>(TypeAParams::Default());
    abe_ = new CpAbe(pairing_);
    DeterministicRng rng(42);
    setup_ = new CpAbe::SetupResult(abe_->Setup(rng));
  }

  static std::shared_ptr<const TypeAPairing> pairing_;
  static CpAbe* abe_;
  static CpAbe::SetupResult* setup_;
};

std::shared_ptr<const TypeAPairing> CpAbeTest::pairing_;
CpAbe* CpAbeTest::abe_ = nullptr;
CpAbe::SetupResult* CpAbeTest::setup_ = nullptr;

// --------------------------- policy trees ---------------------------

TEST(PolicyTest, ConstructionAndSatisfaction) {
  PolicyNode p = PolicyNode::Or({PolicyNode::Leaf("user:alice"),
                                 PolicyNode::Leaf("user:bob")});
  EXPECT_TRUE(p.IsSatisfiedBy({"user:alice"}));
  EXPECT_TRUE(p.IsSatisfiedBy({"user:bob", "x"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"user:carol"}));
  EXPECT_EQ(p.LeafCount(), 2u);

  PolicyNode a = PolicyNode::And({PolicyNode::Leaf("dept:cs"),
                                  PolicyNode::Leaf("rank:senior")});
  EXPECT_TRUE(a.IsSatisfiedBy({"dept:cs", "rank:senior"}));
  EXPECT_FALSE(a.IsSatisfiedBy({"dept:cs"}));
}

TEST(PolicyTest, NestedThresholdGates) {
  // 2-of-3: (A, B, (C AND D))
  PolicyNode p = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("A"), PolicyNode::Leaf("B"),
          PolicyNode::And({PolicyNode::Leaf("C"), PolicyNode::Leaf("D")})});
  EXPECT_TRUE(p.IsSatisfiedBy({"A", "B"}));
  EXPECT_TRUE(p.IsSatisfiedBy({"A", "C", "D"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"A", "C"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"C", "D"}));
  EXPECT_EQ(p.LeafCount(), 4u);
}

TEST(PolicyTest, OrOfUsersShortcut) {
  PolicyNode p = PolicyNode::OrOfUsers({"alice", "bob", "carol"});
  EXPECT_TRUE(p.IsSatisfiedBy({"user:bob"}));
  EXPECT_FALSE(p.IsSatisfiedBy({"bob"}));
  // Single user degenerates to a bare leaf.
  PolicyNode single = PolicyNode::OrOfUsers({"dave"});
  EXPECT_TRUE(single.IsLeaf());
  EXPECT_THROW(PolicyNode::OrOfUsers({}), Error);
}

TEST(PolicyTest, InvalidConstructionsThrow) {
  EXPECT_THROW(PolicyNode::Leaf(""), Error);
  EXPECT_THROW(PolicyNode::Threshold(0, {PolicyNode::Leaf("a")}), Error);
  EXPECT_THROW(PolicyNode::Threshold(2, {PolicyNode::Leaf("a")}), Error);
  EXPECT_THROW(PolicyNode::Or({}), Error);
}

TEST(PolicyTest, SerializationRoundTrip) {
  PolicyNode p = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("A"),
          PolicyNode::Or({PolicyNode::Leaf("B"), PolicyNode::Leaf("C")}),
          PolicyNode::And({PolicyNode::Leaf("D"), PolicyNode::Leaf("E")})});
  Bytes blob;
  p.SerializeTo(blob);
  EXPECT_EQ(PolicyNode::Deserialize(blob), p);
  blob.pop_back();
  EXPECT_THROW(PolicyNode::Deserialize(blob), Error);
}

TEST(PolicyTest, ToStringReadable) {
  PolicyNode p = PolicyNode::Or({PolicyNode::Leaf("user:alice"),
                                 PolicyNode::Leaf("user:bob")});
  EXPECT_EQ(p.ToString(), "(user:alice OR user:bob)");
}

// --------------------------- CP-ABE core ---------------------------

TEST_F(CpAbeTest, AuthorizedUserDecryptsGtElement) {
  DeterministicRng rng(1);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice", "bob"});

  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);
  auto decrypted = abe_->DecryptElement(alice, ct);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_EQ(*decrypted, m);
}

TEST_F(CpAbeTest, UnauthorizedUserGetsNothing) {
  DeterministicRng rng(2);
  PrivateKey eve = abe_->KeyGen(setup_->pk, setup_->mk, {"user:eve"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice", "bob"});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);
  EXPECT_FALSE(abe_->DecryptElement(eve, ct).has_value());
}

TEST_F(CpAbeTest, AndGateRequiresAllAttributes) {
  DeterministicRng rng(3);
  PolicyNode policy = PolicyNode::And(
      {PolicyNode::Leaf("dept:cs"), PolicyNode::Leaf("rank:senior")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);

  PrivateKey both =
      abe_->KeyGen(setup_->pk, setup_->mk, {"dept:cs", "rank:senior"}, rng);
  PrivateKey partial = abe_->KeyGen(setup_->pk, setup_->mk, {"dept:cs"}, rng);
  auto ok = abe_->DecryptElement(both, ct);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, m);
  EXPECT_FALSE(abe_->DecryptElement(partial, ct).has_value());
}

TEST_F(CpAbeTest, ThresholdGateLagrangeRecombination) {
  DeterministicRng rng(4);
  // 2-of-3 policy exercises non-trivial Lagrange coefficients.
  PolicyNode policy = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("a1"), PolicyNode::Leaf("a2"), PolicyNode::Leaf("a3")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);

  for (auto attrs : std::vector<std::vector<std::string>>{
           {"a1", "a2"}, {"a1", "a3"}, {"a2", "a3"}, {"a1", "a2", "a3"}}) {
    PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, attrs, rng);
    auto dec = abe_->DecryptElement(sk, ct);
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, m);
  }
  PrivateKey one = abe_->KeyGen(setup_->pk, setup_->mk, {"a2"}, rng);
  EXPECT_FALSE(abe_->DecryptElement(one, ct).has_value());
}

TEST_F(CpAbeTest, CollusionResistance) {
  // Two users who each fail the AND policy cannot combine their separate
  // keys — each key's components are bound by its own random t.
  DeterministicRng rng(5);
  PolicyNode policy = PolicyNode::And(
      {PolicyNode::Leaf("left"), PolicyNode::Leaf("right")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);

  PrivateKey u1 = abe_->KeyGen(setup_->pk, setup_->mk, {"left"}, rng);
  PrivateKey u2 = abe_->KeyGen(setup_->pk, setup_->mk, {"right"}, rng);
  // Naive collusion: graft u2's component into u1's key.
  PrivateKey frankenstein = u1;
  frankenstein.components["right"] = u2.components.at("right");
  auto dec = abe_->DecryptElement(frankenstein, ct);
  if (dec.has_value()) {
    EXPECT_FALSE(*dec == m);  // recombination yields garbage, not m
  }
}

TEST_F(CpAbeTest, HybridBytesRoundTrip) {
  DeterministicRng rng(6);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Secret secret(ToBytes("the file key state for backup-2013-03-19.tar"));
  Bytes blob = Declassify(abe_->EncryptBytes(setup_->pk, policy, secret, rng),
                          "test: hybrid ABE ciphertext");
  EXPECT_TRUE(abe_->DecryptBytes(alice, blob).ConstantTimeEquals(secret));
}

TEST_F(CpAbeTest, HybridRejectsUnauthorizedAndTampered) {
  DeterministicRng rng(7);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PrivateKey eve = abe_->KeyGen(setup_->pk, setup_->mk, {"user:eve"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Bytes blob = Declassify(
      abe_->EncryptBytes(setup_->pk, policy, Secret(ToBytes("secret")), rng),
      "test: hybrid ABE ciphertext to tamper with");

  EXPECT_THROW(abe_->DecryptBytes(eve, blob), Error);
  Bytes tampered = blob;
  tampered[tampered.size() - 40] ^= 1;  // flip payload bit
  EXPECT_THROW(abe_->DecryptBytes(alice, tampered), Error);
}

TEST_F(CpAbeTest, CiphertextSerializationRoundTrip) {
  DeterministicRng rng(8);
  PolicyNode policy = PolicyNode::Threshold(
      2, {PolicyNode::Leaf("x"), PolicyNode::Leaf("y"), PolicyNode::Leaf("z")});
  pairing::Fp2 m = pairing_->Pair(setup_->pk.g, setup_->pk.g)
                       .Pow(pairing_->RandomScalar(rng));
  Ciphertext ct = abe_->EncryptElement(setup_->pk, m, policy, rng);
  Bytes blob = abe_->SerializeCiphertext(ct);
  Ciphertext back = abe_->DeserializeCiphertext(blob);

  PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk, {"x", "z"}, rng);
  auto dec = abe_->DecryptElement(sk, back);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, m);
  blob.pop_back();
  EXPECT_THROW(abe_->DeserializeCiphertext(blob), Error);
}

TEST_F(CpAbeTest, KeySerializationRoundTrip) {
  DeterministicRng rng(9);
  PrivateKey sk = abe_->KeyGen(setup_->pk, setup_->mk,
                               {"user:alice", "dept:cs"}, rng);
  PrivateKey back = abe_->DeserializePrivateKey(abe_->SerializePrivateKey(sk));
  EXPECT_EQ(back.Attributes(), sk.Attributes());

  PublicKey pk_back = abe_->DeserializePublicKey(abe_->SerializePublicKey(setup_->pk));
  // Round-tripped public key still encrypts correctly.
  PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  Bytes blob = Declassify(
      abe_->EncryptBytes(pk_back, policy, Secret(ToBytes("hello")), rng),
      "test: ciphertext under the round-tripped public key");
  EXPECT_TRUE(abe_->DecryptBytes(back, blob).ConstantTimeEquals(ToBytes("hello")));
}

TEST_F(CpAbeTest, MasterKeySerializationRoundTrip) {
  // A restored master key must issue working private keys — the reedctl
  // attribute authority persists org state this way.
  DeterministicRng rng(12);
  MasterKey mk = abe_->DeserializeMasterKey(abe_->SerializeMasterKey(setup_->mk));
  EXPECT_EQ(mk.beta, setup_->mk.beta);
  PrivateKey sk = abe_->KeyGen(setup_->pk, mk, {"user:dave"}, rng);
  PolicyNode policy = PolicyNode::OrOfUsers({"dave"});
  Bytes blob = Declassify(
      abe_->EncryptBytes(setup_->pk, policy, Secret(ToBytes("data")), rng),
      "test: ciphertext under the restored master key's issuer");
  EXPECT_TRUE(abe_->DecryptBytes(sk, blob).ConstantTimeEquals(ToBytes("data")));
  EXPECT_THROW(abe_->DeserializeMasterKey(Secret(Bytes(3, 0))), Error);
}

TEST_F(CpAbeTest, RevocationByPolicyChange) {
  // The REED rekey pattern: re-encrypt the key state under a policy without
  // the revoked user.
  DeterministicRng rng(10);
  PrivateKey bob = abe_->KeyGen(setup_->pk, setup_->mk, {"user:bob"}, rng);
  Secret state(ToBytes("key-state-v1"));

  Bytes v1 = Declassify(
      abe_->EncryptBytes(setup_->pk, PolicyNode::OrOfUsers({"alice", "bob"}),
                         state, rng),
      "test: v1 key-state envelope");
  EXPECT_TRUE(abe_->DecryptBytes(bob, v1).ConstantTimeEquals(state));

  Secret state2(ToBytes("key-state-v2"));
  Bytes v2 = Declassify(
      abe_->EncryptBytes(setup_->pk, PolicyNode::OrOfUsers({"alice"}), state2,
                         rng),
      "test: v2 key-state envelope excluding bob");
  EXPECT_THROW(abe_->DecryptBytes(bob, v2), Error);
}

TEST_F(CpAbeTest, StoredKeyStateBlobsStillOpen) {
  // Blobs written by an earlier release (abe_keystate_fixture.h) must open
  // under today's pairing and decrypt path, byte for byte, and the outsider
  // must still be refused: stored key states outlive code changes.
  PrivateKey member = abe_->DeserializePrivateKey(
      Secret(HexDecode(fixture::kMemberKeyHex)));
  PrivateKey outsider = abe_->DeserializePrivateKey(
      Secret(HexDecode(fixture::kOutsiderKeyHex)));
  Bytes plain = HexDecode(fixture::kPlaintextHex);
  for (const char* blob_hex :
       {fixture::kOrPolicyBlobHex, fixture::kThresholdBlobHex}) {
    Bytes blob = HexDecode(blob_hex);
    EXPECT_TRUE(abe_->DecryptBytes(member, blob).ConstantTimeEquals(plain));
    EXPECT_THROW(abe_->DecryptBytes(outsider, blob), Error);
  }
}

TEST_F(CpAbeTest, EncryptBytesPinnedVectors) {
  // SHA-256 of EncryptBytes blobs written by the variable-base encrypt path
  // under fixed seeds. The fixed-base tables must draw the same randomness
  // and produce the same group elements, so the blobs match byte for byte.
  struct Case {
    PolicyNode policy;
    std::uint64_t seed;
    const char* sha256;
  };
  const std::vector<Case> cases = {
      {PolicyNode::OrOfUsers({"alice"}), 301,
       "56573e277aa8ddd8a4c825947e00012d13e46e7021f5f1e7cc9d51cefd5cff7a"},
      {PolicyNode::OrOfUsers({"alice", "bob"}), 302,
       "4b36cc8cafb1a1dac4ce54c5319da8bf44f3ccfa000b182f761a1877e1e0e25a"},
      {PolicyNode::OrOfUsers({"alice", "bob", "carol"}), 303,
       "09fe7b69cf9156f14aedeec3f232e3dbb041623d11450d801ee1299b63bb2e45"},
      {PolicyNode::Threshold(2, {PolicyNode::Leaf("user:alice"),
                                 PolicyNode::Leaf("user:bob"),
                                 PolicyNode::Leaf("user:carol")}),
       304,
       "d442e5f017743f98cda33566720fa6d454fbbd69433906eb864f44bd0166cbef"},
  };
  const Secret plain(ToBytes("reed/pinned key state"));
  DeterministicRng key_rng(305);
  PrivateKey alice =
      abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice", "user:bob"}, key_rng);
  for (const Case& c : cases) {
    DeterministicRng rng(c.seed);
    Bytes blob = Declassify(abe_->EncryptBytes(setup_->pk, c.policy, plain, rng),
                            "test: pinned ciphertext");
    EXPECT_EQ(HexEncode(crypto::Sha256::HashToBytes(blob)), c.sha256)
        << c.policy.ToString();
    EXPECT_TRUE(abe_->DecryptBytes(alice, blob).ConstantTimeEquals(plain));
  }
}

TEST_F(CpAbeTest, EvictedAttributeTablesRebuildIdentically) {
  // The attribute cache holds 96 combs. Filling it with 96 other users
  // evicts alice's and bob's; their rebuilt combs must give the same
  // points, so the ciphertext is byte identical to the one made before the
  // eviction. A policy wider than the cache uses single-row tables and
  // caches nothing; its ciphertext must still open.
  CpAbe abe(pairing_);
  const PolicyNode ab = PolicyNode::OrOfUsers({"alice", "bob"});
  const Secret plain(ToBytes("reed/eviction key state"));
  auto encrypt = [&](const PolicyNode& policy) {
    DeterministicRng rng(401);
    return Declassify(abe.EncryptBytes(setup_->pk, policy, plain, rng),
                      "test: eviction ciphertext");
  };
  auto users = [](std::size_t first, std::size_t count) {
    std::vector<std::string> out;
    for (std::size_t i = first; i < first + count; ++i) {
      out.push_back("filler-" + std::to_string(i));
    }
    return out;
  };
  const Bytes first = encrypt(ab);
  EXPECT_EQ(abe.AttributeCacheStats().evictions, 0u);
  (void)encrypt(PolicyNode::OrOfUsers(users(0, 48)));
  (void)encrypt(PolicyNode::OrOfUsers(users(48, 48)));
  EXPECT_EQ(abe.AttributeCacheStats().evictions, 2u);
  EXPECT_EQ(encrypt(ab), first);  // alice and bob rebuilt

  const auto before = abe.AttributeCacheStats();
  std::vector<std::string> wide_users = users(1000, 97);
  wide_users.push_back("carol");
  const Bytes wide = encrypt(PolicyNode::OrOfUsers(wide_users));
  EXPECT_EQ(abe.AttributeCacheStats().evictions, before.evictions);
  DeterministicRng key_rng(402);
  PrivateKey carol = abe.KeyGen(setup_->pk, setup_->mk, {"user:carol"}, key_rng);
  EXPECT_TRUE(abe.DecryptBytes(carol, wide).ConstantTimeEquals(plain));
}

TEST_F(CpAbeTest, HandAssembledKeysStillWork) {
  // Keys whose precomputation is missing or stale (fields set or edited by
  // hand) are prepared on use and give the same answers.
  DeterministicRng rng(403);
  PrivateKey alice = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PublicKey bare_pk{setup_->pk.g, setup_->pk.h, setup_->pk.e_gg_alpha, nullptr};
  const PolicyNode policy = PolicyNode::OrOfUsers({"alice"});
  const Secret plain(ToBytes("reed/hand-made keys"));
  DeterministicRng r1(404), r2(404);
  Bytes with_tables = Declassify(
      abe_->EncryptBytes(setup_->pk, policy, plain, r1), "test: ciphertext");
  Bytes without = Declassify(abe_->EncryptBytes(bare_pk, policy, plain, r2),
                             "test: ciphertext");
  EXPECT_EQ(with_tables, without);

  PrivateKey stripped = alice;
  stripped.d_lines.reset();
  for (auto& [attr, comp] : stripped.components) comp.d_lines.reset();
  EXPECT_TRUE(abe_->DecryptBytes(stripped, with_tables).ConstantTimeEquals(plain));
  // Stale lines (prepared from another key's points) are not used: with
  // them the decryption would fail, re-prepared it succeeds.
  PrivateKey other = abe_->KeyGen(setup_->pk, setup_->mk, {"user:alice"}, rng);
  PrivateKey stale = alice;
  stale.d_lines = other.d_lines;
  AttributeKey& comp = stale.components.at("user:alice");
  comp.d_lines = other.components.at("user:alice").d_lines;
  comp.neg_d_prime_lines = other.components.at("user:alice").neg_d_prime_lines;
  EXPECT_TRUE(abe_->DecryptBytes(stale, with_tables).ConstantTimeEquals(plain));
}

TEST_F(CpAbeTest, EmptyAttributeSetRejected) {
  DeterministicRng rng(11);
  EXPECT_THROW(abe_->KeyGen(setup_->pk, setup_->mk, {}, rng), Error);
}

}  // namespace
}  // namespace reed::abe
