#include "workloads.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <string_view>
#include <thread>

#include "crypto/sha256.h"
#include "inputs.h"

namespace perfbench {

using namespace reed;
using client::RevocationMode;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
constexpr std::size_t kStubBytesPerChunk = 64;  // aont::kDefaultStubSize
constexpr std::size_t kAvgChunk = 8 * 1024;     // ClientOptions default

RevocationMode Alternate(std::uint64_t i) {
  return i % 2 == 0 ? RevocationMode::kLazy : RevocationMode::kActive;
}

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

Bytes Head(const Bytes& data, std::size_t n) {
  return Bytes(data.begin(),
               data.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(n, data.size())));
}

std::string Hex(crypto::Sha256& h) {
  crypto::Sha256Digest d = h.Finish();
  return HexEncode(ByteSpan(d.data(), d.size()));
}

void HashString(crypto::Sha256& h, const std::string& s) {
  h.Update(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// Runs body(i, log_i) on `n` threads and merges their logs into `log`.
template <typename F>
void Parallel(std::size_t n, OpLog& log, F&& body) {
  std::vector<OpLog> logs(n);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        body(i, logs[i]);
      } catch (const std::exception& e) {
        logs[i].Fail(std::string("client thread: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const OpLog& l : logs) log.Merge(l);
}

// The peak-RSS probe (ArmRssProbe): timed operations counted since it was
// armed, and VmHWM in MB once the count reached kRssOps (0 until then).
std::atomic<bool> rss_armed{false};
std::atomic<std::uint64_t> rss_ops{0};
std::atomic<double> rss_mb{0};

double VmHwmMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

}  // namespace

void ArmRssProbe() {
  rss_ops = 0;
  rss_mb = 0;
  rss_armed = true;
}

double ProbedPeakRssMb(bool& reached) {
  rss_armed = false;
  const double mb = rss_mb.load();
  reached = mb > 0;
  return reached ? mb : VmHwmMb();
}

void OpLog::Fail(const std::string& what) {
  ++failed;
  if (problems.size() < 8) problems.push_back(what);
}

void OpLog::Merge(const OpLog& o) {
  op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
  rekey_lazy_ms.insert(rekey_lazy_ms.end(), o.rekey_lazy_ms.begin(),
                       o.rekey_lazy_ms.end());
  rekey_active_ms.insert(rekey_active_ms.end(), o.rekey_active_ms.begin(),
                         o.rekey_active_ms.end());
  upload_s += o.upload_s;
  download_s += o.download_s;
  upload_bytes += o.upload_bytes;
  download_bytes += o.download_bytes;
  new_package_bytes += o.new_package_bytes;
  attempted += o.attempted;
  failed += o.failed;
  for (const std::string& p : o.problems) {
    if (problems.size() < 8) problems.push_back(p);
  }
}

// --- UserClient ----------------------------------------------------------

UserClient::UserClient(Cluster& cluster, Tracer& tracer,
                       const std::string& user)
    : tracer_(tracer), client_(cluster.MakeClient(user, ctx_)) {}

// Runs `op`, which returns an error message or "" on success. A timed
// success appends its latency to log.op_ms.
template <typename F>
bool UserClient::Run(const char* span_name, bool timed, OpLog& log, F&& op) {
  ++log.attempted;
  Span span;
  span.name = span_name;
  const bool tracing = tracer_.enabled();
  if (tracing) {
    span.id = tracer_.NewId();
    ctx_.op_id.store(span.id, std::memory_order_relaxed);
  }
  const auto start = Clock::now();
  span.start_ns = NowNs();
  std::string error;
  try {
    error = op();
  } catch (const std::exception& e) {
    error = e.what();
    if (error.empty()) error = "exception";
  }
  span.end_ns = NowNs();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (tracing) {
    ctx_.op_id.store(0, std::memory_order_relaxed);
    tracer_.Record(std::move(span));
  }
  if (!error.empty()) {
    log.Fail(std::string(span_name) + ": " + error);
    return false;
  }
  if (timed) {
    log.op_ms.push_back(ms);
    if (rss_armed.load(std::memory_order_relaxed) &&
        rss_ops.fetch_add(1) + 1 == kRssOps) {
      rss_mb = VmHwmMb();
    }
  }
  return true;
}

bool UserClient::Upload(const std::string& file_id, const Bytes& data,
                    const std::vector<std::string>& users, OpLog& log) {
  client::UploadResult result;
  bool ok = Run("op.upload", true, log, [&] {
    result = client_->Upload(file_id, data, users);
    return result.logical_bytes == data.size() ? std::string()
                                               : "logical size mismatch";
  });
  if (ok) {
    log.upload_s += log.op_ms.back() / 1e3;
    log.upload_bytes += data.size();
    log.new_package_bytes += result.stored_bytes;
  }
  return ok;
}

bool UserClient::Download(const std::string& file_id, const Bytes& expected,
                      OpLog& log) {
  bool ok = Run("op.download", true, log, [&] {
    Bytes restored = client_->Download(file_id);
    return restored == expected ? std::string()
                                : file_id + " restored different bytes";
  });
  if (ok) {
    log.download_s += log.op_ms.back() / 1e3;
    log.download_bytes += expected.size();
  }
  return ok;
}

bool UserClient::Rekey(const std::string& file_id,
                   const std::vector<std::string>& users, RevocationMode mode,
                   OpLog& log) {
  const bool active = mode == RevocationMode::kActive;
  bool ok = Run("op.rekey", true, log, [&] {
    client::RekeyResult r = client_->Rekey(file_id, users, mode);
    return r.stub_reencrypted == active ? std::string()
                                        : "stub re-encryption flag wrong";
  });
  if (ok) {
    (active ? log.rekey_active_ms : log.rekey_lazy_ms)
        .push_back(log.op_ms.back());
  }
  return ok;
}

bool UserClient::DownloadRefused(const std::string& file_id, OpLog& log) {
  // CP-ABE has no typed error, so the refusal is recognised by its message;
  // any other failure (network, wire, store) is not a refusal.
  static constexpr std::string_view kRefusal =
      "CpAbe::DecryptBytes: attributes do not satisfy policy";
  return Run("check.refused", false, log, [&]() -> std::string {
    try {
      (void)client_->Download(file_id);
    } catch (const std::exception& e) {
      const std::string what = e.what();
      return what.find(kRefusal) != std::string::npos
                 ? ""
                 : "revoked user's restore failed for another reason: " + what;
    }
    return "a revoked user restored " + file_id;
  });
}

// --- incremental-backup ---------------------------------------------------
// Backup agents, each with its own snapshot chain. Set-up backs up each
// agent's base snapshot, shared with a reader. Each measured version edits
// ~2% of the agent's previous one (overwrites, an insertion and a deletion),
// is backed up for the reader and is restored by the owner. Every
// kRevokeEvery-th version, before the restore, the owner revokes the reader
// with a lazy rekey followed by an active one (stub re-encryption) and the
// reader's restore must be refused. Nearly every chunk hits the key cache
// and the server's dedup index, so chunking, hashing, CAONT, the wire and
// the store bound the uploads and restores, beside their CP-ABE wrap and
// unwrap. The agents run side by side so that a run measures more work and
// is not at the mercy of how fast the one core a single client would use
// runs. There are 3: each keeps about a core busy, and the key manager and
// the servers need the fourth of the 4 cores (README.md, "Thread budget").
// The rekeys, the slowest operations, are a minority so that op_p99_ms
// falls among them rather than on whichever transfer a stall of the host
// hit (README.md, "Run-to-run spread").

class IncrementalBackup : public Workload {
 public:
  explicit IncrementalBackup(std::uint64_t seed) : seed_(seed) {}

  void Setup(Cluster& cluster, Tracer& tracer, OpLog& log) override {
    cluster.AddUser("owner");
    cluster.AddUser("reader");
    agents_.resize(kAgents);
    for (std::size_t a = 0; a < kAgents; ++a) {
      agents_[a].owner = std::make_unique<UserClient>(cluster, tracer, "owner");
      agents_[a].reader =
          std::make_unique<UserClient>(cluster, tracer, "reader");
      agents_[a].current = Base(a);
    }
    Parallel(kAgents, log, [&](std::size_t a, OpLog& alog) {
      agents_[a].owner->Upload(SnapId(a, 0), agents_[a].current, {"reader"},
                               alog);
    });
  }

  void Run(double seconds, OpLog& log) override {
    const auto deadline = DeadlineAfter(seconds);
    Parallel(kAgents, log, [&](std::size_t a, OpLog& alog) {
      Agent& g = agents_[a];
      while (Clock::now() < deadline) {
        const std::uint64_t v = ++g.version;
        Bytes next = Next(a, g.current, v);
        const std::string id = SnapId(a, v);
        if (g.owner->Upload(id, next, {"reader"}, alog)) {
          if (v % kRevokeEvery == 0) {
            g.owner->Rekey(id, {}, RevocationMode::kLazy, alog);
            g.owner->Rekey(id, {}, RevocationMode::kActive, alog);
            g.reader->DownloadRefused(id, alog);
          }
          g.owner->Download(id, next, alog);
        }
        g.current = std::move(next);
      }
    });
  }

  // One more revocation round, on agent 0's base snapshot, which the reader
  // still shares: the reader restores it, the owner revokes the reader
  // actively, the reader is refused and the owner restores it, and no
  // stored package byte may change. The measured rounds interleave with
  // uploads, which add packages, so the digests are compared around this
  // round.
  void Finish(Cluster& cluster, OpLog& log) override {
    const std::vector<std::string> digests = cluster.PackageDigests();
    const Bytes base = Base(0);
    Agent& g = agents_[0];
    g.reader->Download(SnapId(0, 0), base, log);
    g.owner->Rekey(SnapId(0, 0), {}, RevocationMode::kActive, log);
    g.reader->DownloadRefused(SnapId(0, 0), log);
    g.owner->Download(SnapId(0, 0), base, log);
    ++log.attempted;
    if (cluster.PackageDigests() != digests) {
      log.Fail("rekeying changed stored package bytes");
    }
  }

  LayerInputs Inputs() const override {
    return {Head(agents_[0].current, kMiB), 2,
            kBaseBytes / kAvgChunk * kStubBytesPerChunk};
  }

  std::string InputDigest(std::size_t n) const override {
    crypto::Sha256 h;
    for (std::size_t a = 0; a < kAgents; ++a) {
      Bytes v = Base(a);
      h.Update(v);
      for (std::size_t i = 1; i <= n; ++i) {
        v = Next(a, v, i);
        h.Update(v);
      }
    }
    return Hex(h);
  }

 private:
  static constexpr std::size_t kAgents = 3;
  static constexpr std::size_t kBaseBytes = 1 * kMiB;
  static constexpr double kEditFraction = 0.02;
  static constexpr std::uint64_t kRevokeEvery = 6;

  struct Agent {
    std::unique_ptr<UserClient> owner;
    std::unique_ptr<UserClient> reader;
    std::uint64_t version = 0;
    Bytes current;
  };

  static std::string SnapId(std::size_t a, std::uint64_t v) {
    return "snap-" + std::to_string(a) + "-" + std::to_string(v);
  }
  Bytes Base(std::size_t a) const {
    return RandomBytes(seed_, "incremental", a, kBaseBytes);
  }
  Bytes Next(std::size_t a, const Bytes& prev, std::uint64_t v) const {
    auto rng = StreamRng(seed_, "incremental-edit-" + std::to_string(a), v);
    return EditVersion(prev, rng, kEditFraction);
  }

  std::uint64_t seed_;
  std::vector<Agent> agents_;
};

// --- shared-servers -------------------------------------------------------
// Three backup agents in a closed loop (each waits for its reply) share the
// servers, leaving the fourth core to them (README.md, "Thread budget").
// Each op is, over zipfian files: a small incremental upload of one of the
// agent's own files (built from a block pool shared across agents, so
// uploads dedup against each other), a restore of any agent's latest
// version, or a rekey of the agent's private file (small policy,
// alternating lazy and active).

class SharedServers : public Workload {
 public:
  explicit SharedServers(std::uint64_t seed)
      : seed_(seed), own_zipf_(kFilesPerAgent, 1.1),
        all_zipf_(kAgents * kFilesPerAgent, 1.1) {
    for (std::size_t c = 0; c < kAgents; ++c) {
      names_.push_back("agent-" + std::to_string(c));
      tapes_.push_back(StreamRng(seed_, "shared-ops", c));
    }
  }

  void Setup(Cluster& cluster, Tracer& tracer, OpLog& log) override {
    for (const std::string& n : names_) cluster.AddUser(n);
    for (const std::string& n : names_) {
      agents_.push_back(std::make_unique<UserClient>(cluster, tracer, n));
    }
    for (std::size_t g = 0; g < kAgents * kFilesPerAgent; ++g) {
      catalog_.push_back(
          {FileId(g, 0), std::make_shared<const Bytes>(BaseFile(g))});
    }
    versions_.assign(catalog_.size(), 0);
    rekeys_.assign(kAgents, 0);
    Parallel(kAgents, log, [&](std::size_t c, OpLog& clog) {
      for (std::size_t k = 0; k < kFilesPerAgent; ++k) {
        const Entry& e = catalog_[c * kFilesPerAgent + k];
        agents_[c]->Upload(e.id, *e.data, names_, clog);
      }
      agents_[c]->Upload(PrivateId(c), PrivateFile(c), {Peer(c)}, clog);
    });
  }

  void Run(double seconds, OpLog& log) override {
    const auto deadline = DeadlineAfter(seconds);
    Parallel(kAgents, log, [&](std::size_t c, OpLog& clog) {
      while (Clock::now() < deadline) {
        Op op = NextOp(
            c, tapes_[c], [&](std::size_t g) { return Latest(g); },
            versions_);
        UserClient& d = *agents_[c];
        switch (op.kind) {
          case OpKind::kUpload:
            if (d.Upload(op.entry.id, *op.entry.data, names_, clog)) {
              std::lock_guard lock(mu_);
              catalog_[op.file] = op.entry;
            }
            break;
          case OpKind::kDownload:
            d.Download(op.entry.id, *op.entry.data, clog);
            break;
          case OpKind::kRekey:
            d.Rekey(PrivateId(c), {Peer(c)}, Alternate(rekeys_[c]++), clog);
            break;
        }
      }
    });
  }

  LayerInputs Inputs() const override {
    Bytes sample;
    for (std::size_t g = 0; g < kFilesPerAgent; ++g) {
      Bytes f = BaseFile(g);
      sample.insert(sample.end(), f.begin(), f.end());
    }
    return {sample, kAgents, kFileBytes / kAvgChunk * kStubBytesPerChunk};
  }

  std::string InputDigest(std::size_t n) const override {
    crypto::Sha256 h;
    for (std::size_t c = 0; c < kAgents; ++c) {
      auto tape = StreamRng(seed_, "shared-ops", c);
      std::vector<Entry> latest;
      for (std::size_t g = 0; g < kAgents * kFilesPerAgent; ++g) {
        latest.push_back(
            {FileId(g, 0), std::make_shared<const Bytes>(BaseFile(g))});
      }
      std::vector<std::uint64_t> versions(latest.size(), 0);
      h.Update(PrivateFile(c));
      for (std::size_t i = 0; i < n; ++i) {
        Op op = NextOp(
            c, tape, [&](std::size_t g) { return latest[g]; }, versions);
        HashString(h, std::to_string(static_cast<int>(op.kind)) + ":" +
                          std::to_string(op.file) + ",");
        if (op.kind == OpKind::kUpload) {
          h.Update(*op.entry.data);
          latest[op.file] = op.entry;
        }
      }
    }
    return Hex(h);
  }

 private:
  static constexpr std::size_t kAgents = 3;
  static constexpr std::size_t kFilesPerAgent = 4;
  static constexpr std::size_t kBlockBytes = 16 * 1024;
  static constexpr std::size_t kPoolBlocks = 96;
  static constexpr std::size_t kBlocksPerFile = 16;
  static constexpr std::size_t kFileBytes = kBlockBytes * kBlocksPerFile;
  static constexpr std::size_t kPrivateBytes = 64 * 1024;

  enum class OpKind { kUpload, kDownload, kRekey };
  struct Entry {
    std::string id;
    std::shared_ptr<const Bytes> data;
  };
  struct Op {
    OpKind kind = OpKind::kRekey;
    std::size_t file = 0;
    Entry entry;  // upload: the new version; download: what to expect
  };

  // The next op on agent c's tape: 60% upload, 25% download, 15% rekey.
  // The mix, the zipf exponent and the file sizes are assumed, not taken
  // from a measured trace (README.md, "Workloads").
  // `latest` gives a file's newest version; `versions` counts each file's
  // versions (an agent only ever bumps its own files').
  template <typename LatestFn>
  Op NextOp(std::size_t c, crypto::Rng& tape, LatestFn latest,
            std::vector<std::uint64_t>& versions) const {
    Op op;
    const std::uint64_t roll = tape.Uniform(100);
    if (roll < 60) {
      op.kind = OpKind::kUpload;
      op.file = c * kFilesPerAgent + own_zipf_.Sample(tape);
      Entry prev = latest(op.file);
      op.entry = {FileId(op.file, ++versions[op.file]),
                  std::make_shared<const Bytes>(
                      EditVersion(*prev.data, tape, kEditFraction))};
    } else if (roll < 85) {
      op.kind = OpKind::kDownload;
      op.file = all_zipf_.Sample(tape);
      op.entry = latest(op.file);
    }
    return op;
  }

  Entry Latest(std::size_t g) {
    std::lock_guard lock(mu_);
    return catalog_[g];
  }

  static std::string FileId(std::size_t g, std::uint64_t v) {
    return "file-" + std::to_string(g) + "-v" + std::to_string(v);
  }
  static std::string PrivateId(std::size_t c) {
    return "private-" + std::to_string(c);
  }
  std::string Peer(std::size_t c) const { return names_[(c + 1) % kAgents]; }

  // File g's first version: kBlocksPerFile blocks of the shared pool, so
  // each block appears in several agents' files.
  Bytes BaseFile(std::size_t g) const {
    Bytes out;
    for (std::size_t j = 0; j < kBlocksPerFile; ++j) {
      Bytes b = RandomBytes(seed_, "shared-block",
                            (g * 7 + j * 5) % kPoolBlocks, kBlockBytes);
      out.insert(out.end(), b.begin(), b.end());
    }
    return out;
  }
  Bytes PrivateFile(std::size_t c) const {
    return RandomBytes(seed_, "shared-private", c, kPrivateBytes);
  }

  static constexpr double kEditFraction = 0.02;

  std::uint64_t seed_;
  Zipf own_zipf_;
  Zipf all_zipf_;
  std::vector<std::string> names_;
  std::vector<crypto::DeterministicRng> tapes_;
  std::vector<std::unique_ptr<UserClient>> agents_;
  std::mutex mu_;
  std::vector<Entry> catalog_;  // guarded by mu_: each file's latest version
  std::vector<std::uint64_t> versions_;  // per file; only its owner writes
  std::vector<std::uint64_t> rekeys_;    // per agent
};

}  // namespace perfbench

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"incremental-backup",
                                                  "shared-servers"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "incremental-backup") {
    return std::make_unique<IncrementalBackup>(seed);
  }
  if (name == "shared-servers") return std::make_unique<SharedServers>(seed);
  return nullptr;
}

}  // namespace perfbench
