// Crash-recovery harness (DESIGN.md §12, label "durability"): a child
// process runs a deterministic ingest workload against a durable
// StorageServer and is SIGKILLed — either at an armed fault site (the hook
// fires the kill exactly at the site, so the crash lands inside the
// lookup/append/insert compound) or on a timer. The parent then reopens the
// surviving store directory and asserts the crash contract:
//
//   * CheckConsistency holds (recovery reconciled both planes);
//   * every batch the child acknowledged BEFORE the kill re-downloads
//     byte-identical (SIGKILL preserves the page cache, so the kNone fsync
//     policy is the honest model of a process crash);
//   * the torn-write sweep: truncating or bit-flipping the WAL tail at
//     EVERY byte offset of the last record still recovers.
//
// Without -DREED_FAULT_INJECT=ON the armed sites compile to nothing: the
// child completes, and the parent still validates the full store — the
// suite degrades to a reopen test instead of skipping.
//
// On failure the surviving store directory and the scenario parameters are
// preserved under crash_artifacts/ (uploaded by the CI durability job).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "chunk/fingerprint.h"
#include "obs/metrics.h"
#include "server/storage_server.h"
#include "store/log_format.h"
#include "util/fault_inject.h"
#include "util/file_io.h"

namespace reed {
namespace {

using server::StorageServer;
using server::StoreId;

constexpr int kBatches = 12;
constexpr int kChunksPerBatch = 4;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// The deterministic workload both sides reconstruct independently.
Bytes ChunkBytes(int batch, int i) {
  const std::size_t n = 120 + static_cast<std::size_t>(i) * 17;
  Bytes out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = static_cast<std::uint8_t>(batch * 29 + i * 7 + k);
  }
  return out;
}

std::vector<std::pair<chunk::Fingerprint, Bytes>> Batch(int batch) {
  std::vector<std::pair<chunk::Fingerprint, Bytes>> chunks;
  for (int i = 0; i < kChunksPerBatch; ++i) {
    Bytes data = ChunkBytes(batch, i);
    chunks.emplace_back(chunk::Fingerprint::Of(ByteSpan(data)), data);
  }
  // Every batch re-uploads batch 0's first chunk: crashes must not corrupt
  // dedup state either.
  Bytes dup = ChunkBytes(0, 0);
  chunks.emplace_back(chunk::Fingerprint::Of(ByteSpan(dup)), dup);
  return chunks;
}

Bytes RecipeBytes(int batch) {
  Bytes out(48);
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = static_cast<std::uint8_t>(batch * 13 + k);
  }
  return out;
}

StorageServer::Options DurableOptions(const std::string& dir) {
  StorageServer::Options opts;
  opts.data_dir = dir;
  // SIGKILL keeps the page cache, so no-fsync is the honest (and fast)
  // policy for a process-crash test; kGrouped/kAlways model machine crashes.
  opts.durability.fsync_policy = store::FsyncPolicy::kNone;
  return opts;
}

// Fault hook for the child: die exactly where the armed site fired, before
// the FaultError unwind can run any cleanup.
void KillSelfAtSite(const char* /*site*/) { (void)raise(SIGKILL); }

// Child body (post-fork; must _exit, never return into gtest). Acks each
// completed batch by line number in <dir>.ack — written only AFTER the
// server call returned, so every acked batch is recoverable by contract.
[[noreturn]] void RunChildWorkload(const std::string& dir,
                                   const char* fault_site,
                                   std::uint64_t fault_nth) {
  // Force the registry's lazy init (which installs the fault-metrics fired
  // hook) BEFORE taking the hook over, or the first Metrics() call inside
  // StorageServer would silently replace the kill hook with the counter.
  (void)obs::Registry::Global();
  fault::SetFiredHook(&KillSelfAtSite);
  if (fault_site != nullptr) {
    fault::Arm(fault_site, fault::Policy::NthHit(fault_nth));
  }
  try {
    StorageServer server("crash-child", DurableOptions(dir));
    util::File ack = util::File::OpenAppend(dir + ".ack");
    for (int b = 0; b < kBatches; ++b) {
      (void)server.PutChunks(Batch(b));
      server.PutObject(StoreId::kData, "recipe/b" + std::to_string(b),
                       RecipeBytes(b));
      const std::string line = std::to_string(b) + "\n";
      ack.Append(ToBytes(line));
    }
  } catch (const Error&) {
    _exit(3);  // a thrown fault means the kill hook did not run
  }
  _exit(0);
}

std::set<int> ReadAckedBatches(const std::string& dir) {
  std::set<int> acked;
  if (!util::FileExists(dir + ".ack")) return acked;
  std::ifstream in(dir + ".ack");
  int b = 0;
  while (in >> b) acked.insert(b);
  return acked;
}

// Preserve the evidence for the CI artifact upload, with enough detail to
// replay the scenario by hand.
void PreserveArtifacts(const std::string& dir, const std::string& tag,
                       const std::string& why) {
  const std::string dest = "crash_artifacts/" + tag;
  std::error_code ec;
  std::filesystem::create_directories(dest);
  std::filesystem::copy(dir, dest + "/store",
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::overwrite_existing,
                        ec);
  if (util::FileExists(dir + ".ack")) {
    std::filesystem::copy_file(
        dir + ".ack", dest + "/ack.log",
        std::filesystem::copy_options::overwrite_existing, ec);
  }
  std::ofstream note(dest + "/REPRO.txt");
  note << "crash_recovery_test scenario: " << tag << "\n"
       << "failure: " << why << "\n"
       << "workload: " << kBatches << " batches x " << kChunksPerBatch
       << "+1 chunks (deterministic, see ChunkBytes)\n";
}

// Reopen the survivor and check the crash contract for the acked batches.
// Returns "" on success, else the failure description (already preserved).
std::string ValidateSurvivor(const std::string& dir, const std::string& tag) {
  auto fail = [&](const std::string& why) {
    PreserveArtifacts(dir, tag, why);
    return why;
  };
  StorageServer server("crash-reopen", DurableOptions(dir));
  const auto report = server.CheckConsistency();
  if (!report.ok) return fail("CheckConsistency: " + report.detail);
  for (int b : ReadAckedBatches(dir)) {
    std::vector<chunk::Fingerprint> fps;
    std::vector<Bytes> want;
    for (const auto& [fp, data] : Batch(b)) {
      fps.push_back(fp);
      want.push_back(data);
    }
    std::vector<Bytes> got;
    try {
      got = server.GetChunks(fps);
    } catch (const Error& e) {
      return fail("acked batch " + std::to_string(b) +
                  " lost a chunk: " + e.what());
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (got[i] != want[i]) {
        return fail("acked batch " + std::to_string(b) + " chunk " +
                    std::to_string(i) + " not byte-identical after reopen");
      }
    }
    const std::string name = "recipe/b" + std::to_string(b);
    if (!server.HasObject(StoreId::kData, name) ||
        server.GetObject(StoreId::kData, name) != RecipeBytes(b)) {
      return fail("acked object " + name + " wrong after reopen");
    }
  }
  // A second reopen of the repaired state must be a no-op repair.
  server.Reopen();
  if (!server.CheckConsistency().ok) {
    return fail("second reopen broke consistency");
  }
  return "";
}

void CleanupScenario(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::remove(dir + ".ack");
}

struct KillScenario {
  const char* tag;
  const char* site;       // null = timed kill
  std::uint64_t nth;      // NthHit for sited kills, delay ms for timed
};

void RunKillScenario(const KillScenario& s) {
  const std::string dir = FreshDir(std::string("crash_") + s.tag);
  pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    if (s.site != nullptr) {
      RunChildWorkload(dir, s.site, s.nth);
    } else {
      RunChildWorkload(dir, nullptr, 0);
    }
  }
  if (s.site == nullptr) {
    // Timed kill: land somewhere mid-workload, wherever the child got to.
    ::usleep(static_cast<useconds_t>(s.nth) * 1000);
    (void)::kill(pid, SIGKILL);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
  const bool completed = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!killed && !completed) {
    PreserveArtifacts(dir, s.tag, "child died unexpectedly");
    FAIL() << "scenario " << s.tag << ": child neither completed nor was "
           << "SIGKILLed (status " << status << ")";
  }
#if defined(REED_FAULT_INJECT)
  if (s.site != nullptr) {
    EXPECT_TRUE(killed) << "scenario " << s.tag
                        << ": armed site never fired; workload completed";
  }
#endif
  std::string failure = ValidateSurvivor(dir, s.tag);
  EXPECT_TRUE(failure.empty()) << "scenario " << s.tag << ": " << failure;
  if (failure.empty()) CleanupScenario(dir);
}

TEST(CrashRecoveryTest, KilledAtContainerAppend) {
  RunKillScenario({"container_append_1", "store.container.append", 1});
  RunKillScenario({"container_append_7", "store.container.append", 7});
}

TEST(CrashRecoveryTest, KilledAtIndexInsert) {
  RunKillScenario({"index_insert_1", "store.index.insert", 1});
  RunKillScenario({"index_insert_7", "store.index.insert", 7});
}

TEST(CrashRecoveryTest, KilledAtObjectPut) {
  RunKillScenario({"object_put_1", "store.object.put", 1});
  RunKillScenario({"object_put_5", "store.object.put", 5});
}

TEST(CrashRecoveryTest, KilledMidIngestCompound) {
  RunKillScenario({"ingest_chunk_1", "server.ingest.chunk", 1});
  RunKillScenario({"ingest_chunk_13", "server.ingest.chunk", 13});
}

TEST(CrashRecoveryTest, TimedKills) {
  RunKillScenario({"timed_5ms", nullptr, 5});
  RunKillScenario({"timed_20ms", nullptr, 20});
  RunKillScenario({"timed_60ms", nullptr, 60});
}

// ---------------------------------------------------------------------------
// Torn-write sweep: build a pristine store in-process, then attack the WAL
// tail — truncate at EVERY byte offset of the last record, and flip every
// byte of it — and require recovery (plus full consistency) each time.
// ---------------------------------------------------------------------------

struct TailSweepSetup {
  std::string pristine;
  std::size_t last_record_start = 0;
  std::size_t wal_size = 0;
};

TailSweepSetup BuildPristineStore() {
  TailSweepSetup setup;
  setup.pristine = FreshDir("torn_pristine");
  {
    StorageServer server("torn-setup", DurableOptions(setup.pristine));
    for (int b = 0; b < 3; ++b) {
      (void)server.PutChunks(Batch(b));
      server.PutObject(StoreId::kData, "recipe/b" + std::to_string(b),
                       RecipeBytes(b));
    }
    // Destroying the server closes the log descriptors cleanly (no
    // checkpoint: the WAL must stay populated for the sweep).
  }
  Bytes wal = util::ReadFileBytes(setup.pristine + "/wal.log");
  setup.wal_size = wal.size();
  std::size_t offset = 0;
  while (offset < wal.size()) {
    auto scan = store::ScanRecord(wal, offset);
    if (scan.status != store::ScanStatus::kRecord) break;
    setup.last_record_start = offset;
    offset += scan.record.encoded_size;
  }
  return setup;
}

std::string CloneStore(const TailSweepSetup& setup, const std::string& name) {
  const std::string dir = FreshDir(name);
  std::filesystem::copy(setup.pristine, dir,
                        std::filesystem::copy_options::recursive);
  return dir;
}

TEST(TornWalTailTest, RecoversAtEveryTruncationOffset) {
  TailSweepSetup setup = BuildPristineStore();
  ASSERT_GT(setup.wal_size, setup.last_record_start);
  std::string work;
  for (std::size_t cut = setup.last_record_start; cut < setup.wal_size;
       ++cut) {
    work = CloneStore(setup, "torn_truncate");
    {
      util::File f = util::File::OpenAppend(work + "/wal.log");
      f.Truncate(cut);
    }
    StorageServer server("torn-reopen", DurableOptions(work));
    const auto report = server.CheckConsistency();
    if (!report.ok) {
      PreserveArtifacts(work, "torn_cut_" + std::to_string(cut),
                        report.detail);
    }
    ASSERT_TRUE(report.ok)
        << "truncation at byte " << cut << ": " << report.detail;
    if (cut > setup.last_record_start) {
      EXPECT_GT(server.RecoveryStats().discarded_tail, 0u)
          << "torn tail at byte " << cut << " was not counted";
    }
  }
  std::filesystem::remove_all(work);
  std::filesystem::remove_all(setup.pristine);
}

TEST(TornWalTailTest, RecoversWithEveryByteOfLastRecordFlipped) {
  TailSweepSetup setup = BuildPristineStore();
  std::string work;
  for (std::size_t pos = setup.last_record_start; pos < setup.wal_size;
       ++pos) {
    work = CloneStore(setup, "torn_flip");
    {
      Bytes wal = util::ReadFileBytes(work + "/wal.log");
      wal[pos] ^= 0x41;
      util::File f = util::File::OpenAppend(work + "/wal.log");
      f.Truncate(0);
      f.Append(wal);
    }
    StorageServer server("flip-reopen", DurableOptions(work));
    const auto report = server.CheckConsistency();
    if (!report.ok) {
      PreserveArtifacts(work, "flip_at_" + std::to_string(pos),
                        report.detail);
    }
    ASSERT_TRUE(report.ok)
        << "bit flip at byte " << pos << ": " << report.detail;
  }
  std::filesystem::remove_all(work);
  std::filesystem::remove_all(setup.pristine);
}

}  // namespace
}  // namespace reed
