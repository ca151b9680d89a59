// The workloads (README.md, "Workloads") and the per-user client that
// times each client operation and checks its result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/reed_client.h"
#include "cluster.h"
#include "tracing.h"

namespace perfbench {

// What one phase of a workload did, merged over its client threads.
struct OpLog {
  std::vector<double> op_ms;  // every timed client operation
  std::vector<double> rekey_lazy_ms;
  std::vector<double> rekey_active_ms;
  double upload_s = 0;
  double download_s = 0;
  std::uint64_t upload_bytes = 0;    // logical bytes uploaded
  std::uint64_t download_bytes = 0;  // logical bytes restored
  std::uint64_t new_package_bytes = 0;  // UploadResult::stored_bytes
  std::uint64_t attempted = 0;  // operations plus oracle checks
  std::uint64_t failed = 0;     // failed operations plus violated checks
  std::vector<std::string> problems;  // the first few failure messages

  void Fail(const std::string& what);
  void Merge(const OpLog& other);
};

// peak_rss_mb is the process's VmHWM once the run has completed kRssOps
// timed client operations after set-up (warm-up included): a fixed amount
// of work on top of the set-up, so a run that fits more work into its time
// (the store keeps its containers in memory) does not read as needing more
// memory.
constexpr std::uint64_t kRssOps = 40;
// Starts counting timed client operations; the kRssOps-th records VmHWM.
void ArmRssProbe();
// Stops counting. Returns VmHWM in MB as of the kRssOps-th operation; when
// fewer ran, sets `reached` false and returns VmHWM now.
[[nodiscard]] double ProbedPeakRssMb(bool& reached);

// One client (a user's machine) with the operations a workload runs.
// Every method times one client operation, records its root span while
// tracing, and counts a thrown error or a wrong result as a failure.
class UserClient {
 public:
  UserClient(Cluster& cluster, Tracer& tracer, const std::string& user);

  bool Upload(const std::string& file_id, const reed::Bytes& data,
              const std::vector<std::string>& users, OpLog& log);
  // Restores `file_id`; the result must equal `expected` byte for byte.
  bool Download(const std::string& file_id, const reed::Bytes& expected,
                OpLog& log);
  bool Rekey(const std::string& file_id, const std::vector<std::string>& users,
             reed::client::RevocationMode mode, OpLog& log);
  // Oracle: this user must no longer be able to restore `file_id`: CP-ABE
  // must reject the key state. An untimed check, not a workload operation.
  bool DownloadRefused(const std::string& file_id, OpLog& log);

 private:
  template <typename F>
  bool Run(const char* span, bool timed, OpLog& log, F&& op);

  Tracer& tracer_;
  OpContext ctx_;
  std::unique_ptr<reed::client::ReedClient> client_;
};

// Inputs the per-layer replays reuse, taken from the workload's own data.
struct LayerInputs {
  reed::Bytes sample;              // a slice of uploaded content
  std::size_t policy_users = 1;    // users in the workload's rekey policies
  std::size_t stub_file_bytes = 0;  // stub bytes an active rekey moves
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Clients plus preload; timed as part of setup_s. Uploads made here land
  // in `log`.
  virtual void Setup(Cluster& cluster, Tracer& tracer, OpLog& log) = 0;
  // The measured loop: runs for `seconds`, continuing from where an
  // earlier call stopped.
  virtual void Run(double seconds, OpLog& log) = 0;
  // End-of-run oracles beyond the per-operation checks.
  virtual void Finish(Cluster&, OpLog&) {}
  [[nodiscard]] virtual LayerInputs Inputs() const = 0;
  // SHA-256 over the inputs of the set-up and of the first `n` iterations
  // of each client, regenerated from the seed alone.
  [[nodiscard]] virtual std::string InputDigest(std::size_t n) const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                                     std::uint64_t seed);
[[nodiscard]] const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
