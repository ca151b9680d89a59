// Key-manager + MLE key client tests: OPRF batching, wire protocol, rate
// limiting, and key-cache behaviour.
#include <gtest/gtest.h>

#include "crypto/random.h"
#include "crypto/sha256.h"
#include "keymanager/key_manager.h"
#include "keymanager/mle_key_client.h"

namespace reed::keymanager {
namespace {

using crypto::DeterministicRng;

rsa::RsaKeyPair SharedTestKeys() {
  static rsa::RsaKeyPair keys = [] {
    DeterministicRng rng(1000);
    return rsa::GenerateKeyPair(512, rng);
  }();
  return keys;
}

KeyManager MakeManager(KeyManager::Options options = {}) {
  return KeyManager(SharedTestKeys(), options);
}

std::vector<chunk::Fingerprint> MakeFingerprints(int n, std::uint64_t seed) {
  DeterministicRng rng(seed);
  std::vector<chunk::Fingerprint> fps;
  for (int i = 0; i < n; ++i) {
    fps.push_back(chunk::Fingerprint::Of(rng.Generate(100)));
  }
  return fps;
}

std::shared_ptr<net::RpcChannel> DirectChannel(KeyManager& km) {
  return std::make_shared<net::LocalChannel>(
      [&km](ByteSpan req) { return km.HandleRequest(req); });
}

TEST(KeyManagerTest, SignBatchProducesValidSignatures) {
  KeyManager km = MakeManager();
  DeterministicRng rng(1);
  rsa::BlindSignatureClient bc(km.public_key());
  auto req = bc.Blind(ToBytes("fp"), rng);
  auto sigs = km.SignBatch("alice", {req.blinded});
  ASSERT_EQ(sigs.size(), 1u);
  EXPECT_EQ(bc.Unblind(req, sigs[0]).size(), 32u);
  EXPECT_EQ(km.stats().batches, 1u);
  EXPECT_EQ(km.stats().signatures, 1u);
}

TEST(KeyManagerTest, RateLimitingRejectsExcessRequests) {
  KeyManager::Options opts;
  opts.rate_limit_per_sec = 1.0;
  opts.rate_limit_burst = 10.0;
  KeyManager km = MakeManager(opts);
  DeterministicRng rng(2);
  rsa::BlindSignatureClient bc(km.public_key());

  std::vector<bigint::BigInt> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(bc.Blind(ToBytes("fp" + std::to_string(i)), rng).blinded);
  }
  (void)km.SignBatch("bob", batch);               // 8 of 10 tokens
  EXPECT_THROW(km.SignBatch("bob", batch), RateLimitedError);
  // A different client has its own bucket.
  EXPECT_NO_THROW(km.SignBatch("carol", batch));
  EXPECT_EQ(km.stats().rejected, 1u);
}

TEST(KeyManagerTest, WireProtocolRoundTrip) {
  KeyManager km = MakeManager();
  DeterministicRng rng(3);
  rsa::BlindSignatureClient bc(km.public_key());
  std::size_t nbytes = km.public_key().ByteLength();

  auto r1 = bc.Blind(ToBytes("a"), rng);
  auto r2 = bc.Blind(ToBytes("b"), rng);
  Bytes request = KeyManager::EncodeRequest("alice", {r1.blinded, r2.blinded},
                                            nbytes);
  Bytes response = km.HandleRequest(request);
  auto sigs = KeyManager::DecodeResponse(response, nbytes, 2);
  EXPECT_EQ(bc.Unblind(r1, sigs[0]).size(), 32u);
  EXPECT_EQ(bc.Unblind(r2, sigs[1]).size(), 32u);
}

TEST(KeyManagerTest, MalformedWireRequestGetsErrorStatus) {
  KeyManager km = MakeManager();
  Bytes garbage(3, 0xFF);
  Bytes response = km.HandleRequest(garbage);
  EXPECT_THROW(
      KeyManager::DecodeResponse(response, km.public_key().ByteLength(), 0),
      Error);
}

TEST(MleKeyClientTest, KeysAreDeterministicAcrossClients) {
  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  MleKeyClient c1("alice", km.public_key(), DirectChannel(km), opts);
  MleKeyClient c2("bob", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(4);

  auto fps = MakeFingerprints(5, 5);
  auto k1 = c1.GetKeys(fps, rng);
  auto k2 = c2.GetKeys(fps, rng);
  ASSERT_EQ(k1.size(), k2.size());
  for (std::size_t i = 0; i < k1.size(); ++i) {
    // Same chunk -> same MLE key, across users.
    EXPECT_TRUE(k1[i].ConstantTimeEquals(k2[i]));
  }
  for (const auto& k : k1) EXPECT_EQ(k.size(), 32u);
}

TEST(MleKeyClientTest, CacheServesRepeatRequests) {
  KeyManager km = MakeManager();
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), {});
  DeterministicRng rng(6);

  auto fps = MakeFingerprints(10, 7);
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(client.stats().cache_misses, 10u);
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(client.stats().cache_hits, 10u);
  EXPECT_EQ(km.stats().signatures, 10u);  // no extra server work

  client.ClearCache();
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(km.stats().signatures, 20u);
}

TEST(MleKeyClientTest, DisabledCacheAlwaysFetches) {
  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  opts.enable_cache = false;
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(8);
  auto fps = MakeFingerprints(4, 9);
  (void)client.GetKeys(fps, rng);
  (void)client.GetKeys(fps, rng);
  EXPECT_EQ(km.stats().signatures, 8u);
}

TEST(MleKeyClientTest, BatchingSplitsLargeRequests) {
  KeyManager km = MakeManager();
  MleKeyClient::Options opts;
  opts.batch_size = 8;
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), opts);
  DeterministicRng rng(10);
  auto fps = MakeFingerprints(20, 11);
  auto keys = client.GetKeys(fps, rng);
  EXPECT_EQ(keys.size(), 20u);
  EXPECT_EQ(client.stats().batches_sent, 3u);  // 8 + 8 + 4
  EXPECT_EQ(km.stats().batches, 3u);
}

TEST(MleKeyClientTest, MixedHitMissBatchesPreserveOrder) {
  KeyManager km = MakeManager();
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), {});
  DeterministicRng rng(12);
  auto fps = MakeFingerprints(6, 13);

  auto first = client.GetKeys({fps[0], fps[2], fps[4]}, rng);
  auto all = client.GetKeys(fps, rng);
  EXPECT_TRUE(all[0].ConstantTimeEquals(first[0]));
  EXPECT_TRUE(all[2].ConstantTimeEquals(first[1]));
  EXPECT_TRUE(all[4].ConstantTimeEquals(first[2]));
  // Distinct fingerprints map to distinct keys.
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      EXPECT_FALSE(all[i].ConstantTimeEquals(all[j]));
    }
  }
}

TEST(MleKeyClientTest, FailsOverToHealthyReplica) {
  KeyManager km = MakeManager();
  auto dead = std::make_shared<net::LocalChannel>(
      [](ByteSpan) -> Bytes { throw net::NetError("connection refused"); });
  MleKeyClient client("alice", km.public_key(),
                      {dead, DirectChannel(km)}, MleKeyClient::Options{});
  DeterministicRng rng(20);
  auto fps = MakeFingerprints(3, 21);
  auto keys = client.GetKeys(fps, rng);
  EXPECT_EQ(keys.size(), 3u);
  EXPECT_EQ(client.stats().failovers, 1u);

  // Keys from a failover path match keys from a direct path.
  MleKeyClient direct("bob", km.public_key(), DirectChannel(km),
                      MleKeyClient::Options{});
  auto direct_keys = direct.GetKeys(fps, rng);
  ASSERT_EQ(direct_keys.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(direct_keys[i].ConstantTimeEquals(keys[i]));
  }
}

TEST(MleKeyClientTest, AllReplicasDownThrows) {
  KeyManager km = MakeManager();
  auto dead = std::make_shared<net::LocalChannel>(
      [](ByteSpan) -> Bytes { throw net::NetError("down"); });
  MleKeyClient client("alice", km.public_key(), {dead, dead},
                      MleKeyClient::Options{});
  DeterministicRng rng(22);
  EXPECT_THROW(client.GetKeys(MakeFingerprints(1, 23), rng), Error);
  EXPECT_THROW(MleKeyClient("x", km.public_key(),
                            std::vector<std::shared_ptr<net::RpcChannel>>{},
                            MleKeyClient::Options{}),
               Error);
}

TEST(MleKeyClientTest, PinnedBatchBlindingAndKeys) {
  // A seeded 256-fingerprint batch: the blinded request bytes (one r draw
  // per fingerprint, in order) and the MLE keys are pinned from the
  // per-request blinding path; batch blinding must reproduce both.
  KeyManager km = MakeManager();
  Bytes request;
  auto recording = std::make_shared<net::LocalChannel>(
      [&km, &request](ByteSpan req) {
        request.assign(req.begin(), req.end());
        return km.HandleRequest(req);
      });
  MleKeyClient client("alice", km.public_key(), recording, {});
  DeterministicRng rng(256);
  std::vector<Secret> keys = client.GetKeys(MakeFingerprints(256, 257), rng);
  ASSERT_EQ(keys.size(), 256u);
  Bytes all_keys;
  for (const Secret& k : keys) Append(all_keys, k.ExposeForCrypto());
  EXPECT_EQ(client.stats().batches_sent, 1u);
  EXPECT_EQ(HexEncode(crypto::Sha256::HashToBytes(request)),
            "388e58822d55c313d9c4bd3869c891f4c6886c48771a9751cc27b8ebc81a540b");
  EXPECT_EQ(HexEncode(crypto::Sha256::HashToBytes(all_keys)),
            "a6d6e02bd9ddf93d9663230fd453f583990c65985c76064f18101bc72dfc0248");
}

TEST(MleKeyClientTest, RateLimitErrorPropagates) {
  KeyManager::Options kopts;
  kopts.rate_limit_per_sec = 0.001;
  kopts.rate_limit_burst = 2.0;
  KeyManager km = MakeManager(kopts);
  MleKeyClient client("alice", km.public_key(), DirectChannel(km), {});
  DeterministicRng rng(14);
  auto fps = MakeFingerprints(5, 15);
  EXPECT_THROW(client.GetKeys(fps, rng), Error);
}

}  // namespace
}  // namespace reed::keymanager
