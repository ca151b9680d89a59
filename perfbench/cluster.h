// The deployed shape of REED, in one process (README.md, "Cluster"): one key
// manager, 4 data servers and 1 key-store server, each durable (grouped
// fsync, 500 us window) and each served by net::AsyncServer on loopback.
// Clients are ReedClients over TcpChannels with the default ClientOptions.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "abe/cpabe.h"
#include "client/reed_client.h"
#include "crypto/random.h"
#include "keymanager/key_manager.h"
#include "net/async_server.h"
#include "server/storage_server.h"
#include "tracing.h"

namespace perfbench {

inline constexpr std::size_t kDataServers = 4;

// Bytes the cluster holds: trimmed packages plus stub files plus metadata
// (recipes and key states), as core::ReedSystem::TotalStats counts them.
struct StoredBytes {
  std::uint64_t physical = 0;
  std::uint64_t stub = 0;
  std::uint64_t metadata = 0;
  [[nodiscard]] std::uint64_t total() const {
    return physical + stub + metadata;
  }
};

class Cluster {
 public:
  // Servers keep their data under `dir`, which must not exist yet and is
  // removed again by the destructor. Key material comes from a fixed seed:
  // it is not a workload input, and fixing it keeps set-up work (prime
  // search above all) the same from run to run.
  Cluster(std::string dir, Tracer& tracer);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Creates the user's CP-ABE access key and key-regression key pair.
  void AddUser(const std::string& user_id);

  // A client for a registered user, over fresh loopback connections.
  [[nodiscard]] std::unique_ptr<reed::client::ReedClient> MakeClient(
      const std::string& user_id, OpContext& ctx);

  [[nodiscard]] StoredBytes Stored() const;
  // Per-data-server StorageServer::PackageDigest().
  [[nodiscard]] std::vector<std::string> PackageDigests() const;
  // Empty when every server passes StorageServer::CheckConsistency().
  [[nodiscard]] std::string ConsistencyProblem() const;

  // Client-side wire bytes, counted by the tracing channels while tracing.
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> bytes_in{0};

 private:
  struct UserKeys {
    reed::abe::PrivateKey access_key;
    reed::rsa::RsaKeyPair derivation_keys;
  };
  std::shared_ptr<reed::net::RpcChannel> Connect(std::uint16_t port,
                                                 bool key_manager,
                                                 OpContext& ctx);

  std::string dir_;
  Tracer& tracer_;
  reed::crypto::DeterministicRng rng_;
  std::shared_ptr<const reed::abe::CpAbe> abe_;
  reed::abe::CpAbe::SetupResult abe_setup_;
  std::unique_ptr<reed::keymanager::KeyManager> key_manager_;
  // kDataServers data servers, then the key store.
  std::vector<std::unique_ptr<reed::server::StorageServer>> servers_;
  // One per server in servers_' order, then the key manager's.
  std::vector<std::unique_ptr<reed::net::AsyncServer>> front_ends_;
  std::map<std::string, UserKeys> users_;
};

}  // namespace perfbench
