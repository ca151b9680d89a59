// CP-ABE tests: policy-tree logic, end-to-end encrypt/decrypt over GT and
// bytes, threshold gates, revocation semantics, serialization.
#include <gtest/gtest.h>

#include "abe/cpabe.h"
#include "abe_keystate_fixture.h"
#include "crypto/random.h"

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

TEST_F(CpAbeTest, EmptyAttributeSetRejected) {
  DeterministicRng rng(11);
  EXPECT_THROW(abe_->KeyGen(setup_->pk, setup_->mk, {}, rng), Error);
}

}  // namespace
}  // namespace reed::abe
