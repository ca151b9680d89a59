// Tests for the AONT building blocks and the REED basic/enhanced encryption
// schemes — determinism (dedupability), round-trips, tamper detection, stub
// properties, and the MLE-key-leakage distinction between the schemes.
#include <gtest/gtest.h>

#include "aont/aont.h"
#include "aont/reed_cipher.h"
#include "crypto/random.h"
#include "crypto/sha256.h"

namespace reed::aont {
namespace {

using crypto::DeterministicRng;

Bytes TestChunk(std::size_t size, std::uint64_t seed = 1) {
  DeterministicRng rng(seed);
  return rng.Generate(size);
}

Bytes TestKeyBytes(std::uint64_t seed = 2) {
  DeterministicRng rng(seed);
  return rng.Generate(kMleKeySize);
}

Secret TestKey(std::uint64_t seed = 2) { return Secret(TestKeyBytes(seed)); }

TEST(SelfXorTest, KnownValues) {
  Bytes data(64, 0xAB);  // two identical pieces cancel
  EXPECT_EQ(SelfXor(data), Bytes(kAontTailSize, 0));
  Bytes one_piece(32, 0x5C);
  EXPECT_EQ(SelfXor(one_piece), one_piece);
  // Partial last piece is zero-padded.
  Bytes partial(40, 0x11);
  Bytes expect(32, 0x11);
  for (int i = 0; i < 8; ++i) expect[i] ^= 0x11;
  EXPECT_EQ(SelfXor(partial), expect);
}

TEST(MaskTest, DeterministicAndKeyDependent) {
  Bytes k1 = TestKeyBytes(5), k2 = TestKeyBytes(6);
  EXPECT_EQ(Mask(k1, 100), Mask(k1, 100));
  EXPECT_NE(Mask(k1, 100), Mask(k2, 100));
  // Prefix property: longer mask extends the shorter one.
  Bytes long_mask = Mask(k1, 200);
  EXPECT_EQ(Bytes(long_mask.begin(), long_mask.begin() + 100), Mask(k1, 100));
}

// --------------------------- REED schemes ---------------------------

class ReedCipherTest : public ::testing::TestWithParam<Scheme> {
 protected:
  ReedCipher cipher_{GetParam()};
};

TEST_P(ReedCipherTest, RoundTripVariousSizes) {
  for (std::size_t size : {128u, 2048u, 8192u, 16384u, 8191u}) {
    Bytes chunk = TestChunk(size, size);
    Secret key = TestKey(size + 1);
    SealedChunk sealed = cipher_.Encrypt(chunk, key);
    EXPECT_EQ(sealed.stub.size(), kDefaultStubSize);
    EXPECT_EQ(sealed.trimmed_package.size() + sealed.stub.size(),
              cipher_.PackageSize(size));
    EXPECT_EQ(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), chunk);
  }
}

TEST_P(ReedCipherTest, DeterministicForDedup) {
  // Same chunk + same MLE key => identical trimmed package AND stub; this
  // is the property that lets the server dedup trimmed packages across
  // users (paper §IV-A).
  Bytes chunk = TestChunk(8192);
  Secret key = TestKey();
  SealedChunk a = cipher_.Encrypt(chunk, key);
  SealedChunk b = cipher_.Encrypt(chunk, key);
  EXPECT_EQ(a.trimmed_package, b.trimmed_package);
  EXPECT_TRUE(a.stub.ConstantTimeEquals(b.stub));
}

TEST_P(ReedCipherTest, DifferentKeysGiveDifferentPackages) {
  Bytes chunk = TestChunk(4096);
  SealedChunk a = cipher_.Encrypt(chunk, TestKey(1));
  SealedChunk b = cipher_.Encrypt(chunk, TestKey(2));
  EXPECT_NE(a.trimmed_package, b.trimmed_package);
}

TEST_P(ReedCipherTest, TamperedTrimmedPackageDetected) {
  Bytes chunk = TestChunk(4096);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  sealed.trimmed_package[17] ^= 1;
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), Error);
}

TEST_P(ReedCipherTest, TamperedStubDetected) {
  Bytes chunk = TestChunk(4096);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  Bytes stub_bytes = Declassify(sealed.stub, "test: flip a stub bit");
  stub_bytes[3] ^= 0x80;
  sealed.stub = Secret(std::move(stub_bytes));
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), Error);
}

TEST_P(ReedCipherTest, PairedBitFlipsStillDetected) {
  // §IV-E: flipping the same bit position in an even number of self-XOR
  // pieces preserves the recovered hash key in the enhanced scheme, but the
  // reverted input then fails the hash comparison. Both schemes must catch
  // this adversarial pattern.
  Bytes chunk = TestChunk(8192);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  sealed.trimmed_package[0] ^= 0x01;
  sealed.trimmed_package[32] ^= 0x01;  // same bit position, next piece
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, sealed.stub), Error);
}

TEST_P(ReedCipherTest, WrongStubSizeRejected) {
  Bytes chunk = TestChunk(2048);
  SealedChunk sealed = cipher_.Encrypt(chunk, TestKey());
  Bytes short_bytes = Declassify(sealed.stub, "test: truncate the stub");
  short_bytes.pop_back();
  Secret short_stub(std::move(short_bytes));
  EXPECT_THROW(cipher_.Decrypt(sealed.trimmed_package, short_stub), Error);
}

TEST_P(ReedCipherTest, InvalidInputsRejected) {
  EXPECT_THROW(cipher_.Encrypt({}, TestKey()), Error);
  EXPECT_THROW(cipher_.Encrypt(TestChunk(100), Secret(Bytes(16, 0))), Error);
}

TEST_P(ReedCipherTest, ConfigurableStubSize) {
  for (std::size_t stub_size : {32u, 64u, 128u, 256u}) {
    ReedCipher cipher(GetParam(), stub_size);
    Bytes chunk = TestChunk(4096);
    SealedChunk sealed = cipher.Encrypt(chunk, TestKey());
    EXPECT_EQ(sealed.stub.size(), stub_size);
    EXPECT_EQ(cipher.Decrypt(sealed.trimmed_package, sealed.stub), chunk);
  }
  EXPECT_THROW(ReedCipher bad(GetParam(), 16), Error);  // below tail size
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, ReedCipherTest,
                         ::testing::Values(Scheme::kBasic, Scheme::kEnhanced),
                         [](const auto& param_info) {
                           return SchemeName(param_info.param);
                         });

TEST(ReedSchemeContrastTest, BasicLeaksUnderMleKeyCompromise) {
  // With the MLE key, the basic scheme's trimmed package can be unmasked
  // directly (§IV-B): most plaintext bytes are recoverable without the stub.
  Bytes chunk = TestChunk(8192);
  Bytes key_bytes = TestKeyBytes();  // the attacker's compromised MLE key
  ReedCipher basic(Scheme::kBasic);
  SealedChunk sealed = basic.Encrypt(chunk, TestKey());

  Bytes mask = Mask(key_bytes, sealed.trimmed_package.size());
  Bytes recovered = sealed.trimmed_package;
  XorInto(recovered, mask);
  // The attacker recovers the chunk prefix exactly.
  EXPECT_EQ(Bytes(recovered.begin(), recovered.begin() + 4096),
            Bytes(chunk.begin(), chunk.begin() + 4096));
}

TEST(ReedSchemeContrastTest, EnhancedResistsMleKeyCompromise) {
  // The enhanced scheme masks with h = H(C1 ‖ K_M), which depends on the
  // (stub-protected) package content — the MLE key alone unmasks nothing.
  Bytes chunk = TestChunk(8192);
  Bytes key_bytes = TestKeyBytes();
  ReedCipher enhanced(Scheme::kEnhanced);
  SealedChunk sealed = enhanced.Encrypt(chunk, TestKey());

  Bytes mask = Mask(key_bytes, sealed.trimmed_package.size());
  Bytes attempt = sealed.trimmed_package;
  XorInto(attempt, mask);
  // Must NOT match the MLE ciphertext, let alone the plaintext.
  EXPECT_NE(Bytes(attempt.begin(), attempt.begin() + 4096),
            Bytes(chunk.begin(), chunk.begin() + 4096));
}

TEST(ReedSchemeContrastTest, SchemesProduceIncompatiblePackages) {
  Bytes chunk = TestChunk(4096);
  Secret key = TestKey();
  ReedCipher basic(Scheme::kBasic);
  ReedCipher enhanced(Scheme::kEnhanced);
  SealedChunk sb = basic.Encrypt(chunk, key);
  SealedChunk se = enhanced.Encrypt(chunk, key);
  EXPECT_NE(sb.trimmed_package, se.trimmed_package);
  EXPECT_THROW(enhanced.Decrypt(sb.trimmed_package, sb.stub), Error);
}

// --------------------------- stub file crypto ---------------------------

TEST(StubFileTest, RoundTripAndRekey) {
  DeterministicRng rng(7);
  Secret stubs = rng.GenerateSecret(64 * 100);  // 100 chunk stubs
  Secret key1 = rng.GenerateSecret(32);
  Secret key2 = rng.GenerateSecret(32);

  Bytes blob1 = Declassify(EncryptStubFile(stubs, key1, rng),
                           "test: stub-file ciphertext under key1");
  EXPECT_TRUE(DecryptStubFile(blob1, key1).ConstantTimeEquals(stubs));

  // Rekey: decrypt with old key, re-encrypt with new key — the active
  // revocation step.
  Bytes blob2 = Declassify(
      EncryptStubFile(DecryptStubFile(blob1, key1), key2, rng),
      "test: rekeyed stub-file ciphertext under key2");
  EXPECT_TRUE(DecryptStubFile(blob2, key2).ConstantTimeEquals(stubs));
  EXPECT_THROW(DecryptStubFile(blob2, key1), Error);  // old key revoked
}

TEST(WrapKeyBlobTest, RoundTripAndDomainSeparation) {
  DeterministicRng rng(9);
  Secret key = rng.GenerateSecret(32);
  Secret secret(ToBytes("serialized key state v3"));
  Bytes blob = Declassify(WrapKeyBlob(secret, key, rng),
                          "test: wrapped key-state envelope");
  EXPECT_TRUE(UnwrapKeyBlob(blob, key).ConstantTimeEquals(secret));
  // Wrong key rejected.
  EXPECT_THROW(UnwrapKeyBlob(blob, rng.GenerateSecret(32)), Error);
  // Domain separation: a stub-file blob under the same key does not open
  // as a key blob (different HKDF labels).
  Bytes stub_blob = Declassify(EncryptStubFile(secret, key, rng),
                               "test: stub-file ciphertext for domain check");
  EXPECT_THROW(UnwrapKeyBlob(stub_blob, key), Error);
  EXPECT_THROW(DecryptStubFile(blob, key), Error);
}

TEST(WrapKeyBlobTest, TamperDetected) {
  DeterministicRng rng(10);
  Secret key = rng.GenerateSecret(32);
  Bytes blob = Declassify(WrapKeyBlob(Secret(ToBytes("secret")), key, rng),
                          "test: wrapped envelope to tamper with");
  blob[blob.size() / 2] ^= 1;
  EXPECT_THROW(UnwrapKeyBlob(blob, key), Error);
  EXPECT_THROW(UnwrapKeyBlob(Bytes(10, 0), key), Error);
}

TEST(StubFileTest, TamperDetected) {
  DeterministicRng rng(8);
  Secret stubs = rng.GenerateSecret(640);
  Secret key = rng.GenerateSecret(32);
  Bytes blob = Declassify(EncryptStubFile(stubs, key, rng),
                          "test: stub-file ciphertext to tamper with");
  blob[20] ^= 1;
  EXPECT_THROW(DecryptStubFile(blob, key), Error);
  EXPECT_THROW(DecryptStubFile(Bytes(10, 0), key), Error);
}

}  // namespace
}  // namespace reed::aont
