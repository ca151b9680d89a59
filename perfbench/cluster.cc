#include "cluster.h"

#include <filesystem>

#include "net/tcp.h"

namespace perfbench {

using namespace reed;

namespace {

constexpr std::uint64_t kKeySeed = 0x5eed;

// reed_serverd --async defaults: 2 event loops, 4 handler workers.
net::AsyncServer::Options FrontEndOptions() {
  net::AsyncServer::Options opts;
  opts.loops = 2;
  opts.workers = 4;
  return opts;
}

}  // namespace

Cluster::Cluster(std::string dir, Tracer& tracer)
    : dir_(std::move(dir)), tracer_(tracer), rng_(kKeySeed) {
  if (std::filesystem::exists(dir_)) {
    throw Error("perfbench: cluster directory already exists: " + dir_);
  }
  auto pairing = std::make_shared<const pairing::TypeAPairing>(
      pairing::TypeAParams::Default());
  abe_ = std::make_shared<const abe::CpAbe>(pairing);
  abe_setup_ = abe_->Setup(rng_);
  key_manager_ = std::make_unique<keymanager::KeyManager>(
      keymanager::KeyManager::Options{}, rng_);

  // The daemon defaults: grouped fsync with a 500 us commit window.
  server::StorageServer::Options opts;
  opts.durability.fsync_policy = store::FsyncPolicy::kGrouped;
  opts.durability.group_commit_window = std::chrono::microseconds(500);
  for (std::size_t i = 0; i <= kDataServers; ++i) {
    std::string name = i < kDataServers ? "data-server-" + std::to_string(i)
                                        : std::string("key-server");
    opts.data_dir = dir_ + "/" + name;
    servers_.push_back(std::make_unique<server::StorageServer>(name, opts));
  }
  for (auto& srv : servers_) {
    server::StorageServer* raw = srv.get();
    front_ends_.push_back(std::make_unique<net::AsyncServer>(
        0,
        TracedHandler([raw](ByteSpan req) { return raw->HandleRequest(req); },
                      false, tracer_),
        FrontEndOptions()));
  }
  keymanager::KeyManager* km = key_manager_.get();
  front_ends_.push_back(std::make_unique<net::AsyncServer>(
      0,
      TracedHandler([km](ByteSpan req) { return km->HandleRequest(req); },
                    true, tracer_),
      FrontEndOptions()));
}

Cluster::~Cluster() {
  front_ends_.clear();  // joins loops and workers before the services go
  servers_.clear();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

void Cluster::AddUser(const std::string& user_id) {
  if (users_.contains(user_id)) return;
  UserKeys keys{abe_->KeyGen(abe_setup_.pk, abe_setup_.mk,
                             {"user:" + user_id}, rng_),
                rsa::GenerateKeyPair(1024, rng_)};
  users_.emplace(user_id, std::move(keys));
}

std::shared_ptr<net::RpcChannel> Cluster::Connect(std::uint16_t port,
                                                  bool key_manager,
                                                  OpContext& ctx) {
  return std::make_shared<TracingChannel>(
      std::make_unique<net::TcpChannel>(
          net::TcpTransport::Connect("127.0.0.1", port)),
      key_manager, tracer_, ctx, bytes_out, bytes_in);
}

std::unique_ptr<client::ReedClient> Cluster::MakeClient(
    const std::string& user_id, OpContext& ctx) {
  const UserKeys& keys = users_.at(user_id);
  const client::ClientOptions options;  // library defaults
  std::vector<std::shared_ptr<net::RpcChannel>> data;
  for (std::size_t i = 0; i < kDataServers; ++i) {
    data.push_back(Connect(front_ends_[i]->port(), false, ctx));
  }
  auto storage = std::make_shared<client::StorageClient>(
      std::move(data), Connect(front_ends_[kDataServers]->port(), false, ctx),
      /*concurrent_fanout=*/options.pipeline.depth > 1);
  auto key_client = std::make_shared<keymanager::MleKeyClient>(
      user_id, key_manager_->public_key(),
      Connect(front_ends_.back()->port(), true, ctx), options.key_options);
  return std::make_unique<client::ReedClient>(
      user_id, options, std::move(storage), std::move(key_client), abe_,
      abe_setup_.pk, keys.access_key, keys.derivation_keys);
}

StoredBytes Cluster::Stored() const {
  StoredBytes out;
  for (std::size_t i = 0; i < kDataServers; ++i) {
    server::StorageServer::Stats s = servers_[i]->stats();
    std::uint64_t stub =
        servers_[i]->ObjectBytesWithPrefix(server::StoreId::kData, "stub/");
    out.physical += s.physical_bytes;
    out.stub += stub;
    out.metadata += s.data_object_bytes - stub;
  }
  out.metadata += servers_[kDataServers]->stats().key_object_bytes;
  return out;
}

std::vector<std::string> Cluster::PackageDigests() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < kDataServers; ++i) {
    out.push_back(servers_[i]->PackageDigest());
  }
  return out;
}

std::string Cluster::ConsistencyProblem() const {
  for (const auto& srv : servers_) {
    server::StorageServer::ConsistencyReport r = srv->CheckConsistency();
    if (!r.ok) return srv->name() + ": " + r.detail;
  }
  return "";
}

}  // namespace perfbench
