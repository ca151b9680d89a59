// Chunking substrate tests: Rabin rolling-hash algebra, boundary stability
// under edits (the property dedup depends on), fixed chunking, fingerprints.
#include <gtest/gtest.h>

#include "chunk/chunker.h"
#include "chunk/fingerprint.h"
#include "crypto/random.h"
#include "oracles/rabin_split.h"

namespace reed::chunk {
namespace {

using crypto::DeterministicRng;

TEST(FingerprintTest, DeterministicAndDistinct) {
  Bytes a = ToBytes("chunk content A");
  Bytes b = ToBytes("chunk content B");
  EXPECT_EQ(Fingerprint::Of(a), Fingerprint::Of(a));
  EXPECT_NE(Fingerprint::Of(a), Fingerprint::Of(b));
  EXPECT_EQ(Fingerprint::Of(a).ToHex().size(), 64u);
}

TEST(FingerprintTest, RoundTripAndShort48) {
  Fingerprint fp = Fingerprint::Of(ToBytes("data"));
  EXPECT_EQ(Fingerprint::FromBytes(fp.ToBytes()), fp);
  EXPECT_LT(fp.Short48(), std::uint64_t(1) << 48);
  EXPECT_THROW(Fingerprint::FromBytes(Bytes(31, 0)), Error);
}

TEST(RabinTest, PolyModReducesBelowDegree) {
  std::uint64_t poly = RabinWindow::kDefaultPoly;  // degree 53
  DeterministicRng rng(1);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t v = rng.NextU64();
    std::uint64_t r = RabinWindow::PolyMod(v, poly);
    EXPECT_LT(r, std::uint64_t(1) << 53);
    // mod is idempotent
    EXPECT_EQ(RabinWindow::PolyMod(r, poly), r);
  }
  // Values already below the degree are unchanged.
  EXPECT_EQ(RabinWindow::PolyMod(12345, poly), 12345u);
}

TEST(RabinTest, WindowFingerprintDependsOnlyOnWindowContents) {
  // After sliding past the window size, the fingerprint must equal the
  // fingerprint of just the last `window` bytes — the rolling property.
  RabinWindow w1(16);
  RabinWindow w2(16);
  DeterministicRng rng(2);
  Bytes data = rng.Generate(300);

  for (std::uint8_t b : data) w1.Slide(b);
  for (std::size_t i = data.size() - 16; i < data.size(); ++i) w2.Slide(data[i]);
  EXPECT_EQ(w1.fingerprint(), w2.fingerprint());
}

TEST(RabinTest, ResetClearsState) {
  RabinWindow w(8);
  w.Slide(1);
  w.Slide(2);
  std::uint64_t fp_after_two = w.fingerprint();
  w.Reset();
  EXPECT_EQ(w.fingerprint(), 0u);
  w.Slide(1);
  w.Slide(2);
  EXPECT_EQ(w.fingerprint(), fp_after_two);
}

TEST(RabinTest, RejectsBadParameters) {
  EXPECT_THROW(RabinWindow w(0), Error);
  EXPECT_THROW(RabinWindow w(48, 0x3), Error);  // degree too small
}

TEST(FixedChunkerTest, SplitsExactlyAndCoversInput) {
  FixedSizeChunker chunker(100);
  DeterministicRng rng(3);
  Bytes data = rng.Generate(250);
  auto refs = chunker.Split(data);
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0].length, 100u);
  EXPECT_EQ(refs[2].length, 50u);
  std::size_t expected_offset = 0;
  for (const auto& r : refs) {
    EXPECT_EQ(r.offset, expected_offset);
    expected_offset += r.length;
  }
  EXPECT_EQ(expected_offset, data.size());
  EXPECT_TRUE(chunker.Split({}).empty());
  EXPECT_THROW(FixedSizeChunker bad(0), Error);
}

class RabinChunkerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RabinChunkerTest, RespectsBoundsAndCoversInput) {
  std::size_t avg = GetParam();
  RabinChunker chunker(PaperChunking(avg));
  DeterministicRng rng(4);
  Bytes data = rng.Generate(1 << 20);  // 1 MB
  auto refs = chunker.Split(data);
  ASSERT_GT(refs.size(), 1u);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i].offset, offset);
    EXPECT_GT(refs[i].length, 0u);
    EXPECT_LE(refs[i].length, chunker.options().max_size);
    if (i + 1 < refs.size()) {
      EXPECT_GE(refs[i].length, chunker.options().min_size);
    }
    offset += refs[i].length;
  }
  EXPECT_EQ(offset, data.size());
  // Average should be in the right ballpark (within 4x either way).
  double actual_avg =
      static_cast<double>(data.size()) / static_cast<double>(refs.size());
  EXPECT_GT(actual_avg, static_cast<double>(avg) / 4.0);
  EXPECT_LT(actual_avg, static_cast<double>(avg) * 4.0);
}

INSTANTIATE_TEST_SUITE_P(AverageSizes, RabinChunkerTest,
                         ::testing::Values(2048, 4096, 8192, 16384));

TEST(RabinChunkerDedupTest, IdenticalDataGivesIdenticalChunks) {
  RabinChunker chunker(PaperChunking(8192));
  DeterministicRng rng(5);
  Bytes data = rng.Generate(256 * 1024);
  auto a = chunker.Split(data);
  auto b = chunker.Split(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].length, b[i].length);
  }
}

TEST(RabinChunkerDedupTest, SharedSuffixRealignsAfterEdit) {
  // Content-defined chunking: inserting bytes near the front must leave
  // most downstream chunk *contents* unchanged (they realign), which is
  // what lets the dedup layer keep storing only one copy.
  RabinChunker chunker(PaperChunking(4096));
  DeterministicRng rng(6);
  Bytes original = rng.Generate(512 * 1024);
  Bytes edited = original;
  Bytes insertion = rng.Generate(100);
  edited.insert(edited.begin() + 1000, insertion.begin(), insertion.end());

  auto FingerprintSet = [&](ByteSpan data) {
    std::vector<std::string> fps;
    for (const auto& r : chunker.Split(data)) {
      fps.push_back(Fingerprint::Of(data.subspan(r.offset, r.length)).ToHex());
    }
    return fps;
  };
  auto fa = FingerprintSet(original);
  auto fb = FingerprintSet(edited);
  std::size_t shared = 0;
  std::vector<std::string> sorted_a = fa, sorted_b = fb;
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  std::vector<std::string> common;
  std::set_intersection(sorted_a.begin(), sorted_a.end(), sorted_b.begin(),
                        sorted_b.end(), std::back_inserter(common));
  shared = common.size();
  // The vast majority of chunks must survive the edit.
  EXPECT_GT(shared, fa.size() * 3 / 4);
}

TEST(RabinChunkerTest, InvalidOptionsThrow) {
  RabinChunker::Options opts;
  opts.average_size = 3000;  // not a power of two
  EXPECT_THROW(RabinChunker c(opts), Error);
  opts.average_size = 4096;
  opts.min_size = 0;
  EXPECT_THROW(RabinChunker c2(opts), Error);
  opts.min_size = 8192;
  opts.max_size = 4096;
  EXPECT_THROW(RabinChunker c3(opts), Error);
}

TEST(RabinChunkerTest, MaxSizeForcedOnIncompressiblePattern) {
  // Constant data never matches the boundary mask (the window fingerprint
  // is constant), so every chunk must be cut at max_size.
  RabinChunker chunker(PaperChunking(4096));
  Bytes data(200 * 1024, 0xAA);
  auto refs = chunker.Split(data);
  for (std::size_t i = 0; i + 1 < refs.size(); ++i) {
    EXPECT_EQ(refs[i].length, chunker.options().max_size);
  }
}

TEST(RabinChunkerTest, SplitMatchesSlideEveryByteOracle) {
  // Skipping to min_size − window and reading the outgoing byte from the
  // input must give the boundaries of the loop that slid every byte:
  // random, all-zero, max-size-forcing and tiny inputs, several option sets
  // (including min_size below the window, and a window wider than a chunk).
  DeterministicRng rng(77);
  std::vector<Bytes> inputs = {rng.Generate(300 * 1024), Bytes(70 * 1024, 0),
                               Bytes(90 * 1024, 0xAA), Bytes{},
                               Bytes{0x42}, rng.Generate(47),
                               rng.Generate(48), rng.Generate(49),
                               rng.Generate(2047), rng.Generate(2048),
                               rng.Generate(2049)};
  Bytes low_entropy = rng.Generate(200 * 1024);
  for (auto& b : low_entropy) b &= 0x03;
  inputs.push_back(low_entropy);

  std::vector<RabinChunker::Options> option_sets = {
      PaperChunking(8 * 1024), PaperChunking(4 * 1024), PaperChunking(1024),
      PaperChunking(64)};
  RabinChunker::Options tight;
  tight.min_size = 16;
  tight.max_size = 40;
  tight.average_size = 32;
  option_sets.push_back(tight);  // min_size and max_size below the window
  RabinChunker::Options equal;
  equal.min_size = equal.max_size = 4096;
  equal.average_size = 2048;
  option_sets.push_back(equal);

  for (const RabinChunker::Options& opts : option_sets) {
    RabinChunker chunker(opts);
    for (const Bytes& in : inputs) {
      std::vector<ChunkRef> got = chunker.Split(in);
      std::vector<ChunkRef> want = oracle::SlideEveryByteSplit(opts, in);
      ASSERT_EQ(got.size(), want.size())
          << "min " << opts.min_size << " avg " << opts.average_size
          << " input " << in.size();
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].offset, want[i].offset);
        EXPECT_EQ(got[i].length, want[i].length);
      }
    }
  }
}

}  // namespace
}  // namespace reed::chunk
