// Massive-client load-generator engine (DESIGN.md §13), shared by
// bench/bench_loadgen.cc (embedded servers, baseline-gated) and
// tools/loadgen (drives an external reed_serverd).
//
// The engine is pure client side: N threads, each owning one TcpChannel,
// replay a seeded op tape against a storage-server port. File popularity is
// zipfian (a handful of hot files absorb most of the traffic, like any real
// backup population); the op mix is configurable between uploads (chunk
// batch + recipe write), downloads (recipe read + chunk batch read), and
// rekeys (key-state read-modify-write, the paper's §IV revocation path —
// deliberately stub-only, so package bytes never change and the digest
// oracle can prove it).
//
// Pacing: `target_rate` > 0 runs an open(ish) loop — ops are scheduled on a
// fixed global cadence striped across clients, and latency is measured from
// the *scheduled* start, so server-side queueing shows up in the tail
// instead of being silently absorbed (no coordinated omission). Rate 0
// degenerates to a closed loop.
//
// Latencies land in a caller-local obs::Histogram (thread-safe, allocation-
// free on the hot path) and come out as p50/p99/p999 via
// Histogram::Percentile.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chunk/fingerprint.h"
#include "crypto/random.h"
#include "net/async_server.h"
#include "net/rpc.h"
#include "net/tcp.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "server/storage_server.h"

namespace reed::bench {

struct LoadgenConfig {
  std::size_t clients = 8;
  std::size_t ops_per_client = 50;
  // Aggregate ops/sec across all clients; 0 = closed loop.
  double target_rate = 0;
  std::size_t files = 16;           // zipf population
  std::size_t chunks_per_file = 4;
  std::size_t chunk_bytes = 4096;
  double zipf_exponent = 1.1;
  unsigned upload_pct = 30;
  unsigned rekey_pct = 10;  // remainder of the mix is downloads
  // > 0: wrap every request in a tenant envelope, client c as tenant
  // c % tenants — the admission-control (rekey-storm) knob.
  std::uint32_t tenants = 0;
  std::uint64_t seed = 42;
};

struct LoadgenReport {
  double wall_seconds = 0;
  std::uint64_t ops = 0;
  std::uint64_t net_errors = 0;  // transport drops (reconnected + resumed)
  std::uint64_t op_errors = 0;   // in-protocol status-1 responses
  std::uint64_t throttled = 0;   // admission rejections (subset of neither)
  double ops_per_sec = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
};

// Inverse-CDF zipfian sampler over [0, n): rank r gets weight
// 1 / (r+1)^s. Precomputes the cumulative table once; n is small.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::size_t Sample(crypto::Rng& rng) const {
    double u = rng.UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Deterministic chunk payload for (file, chunk index): every phase and both
// front ends regenerate byte-identical corpora, so dedup behaviour — and
// the package digest — is comparable across runs.
inline Bytes LoadgenChunk(const LoadgenConfig& cfg, std::size_t file,
                          std::size_t idx) {
  crypto::DeterministicRng rng(cfg.seed * 1000003 + file * 131 + idx);
  return rng.Generate(cfg.chunk_bytes);
}

inline std::string LoadgenRecipeName(std::size_t file) {
  return "loadgen-recipe-" + std::to_string(file);
}

inline std::string LoadgenKeyStateName(std::size_t file) {
  return "loadgen-keystate-" + std::to_string(file);
}

namespace loadgen_detail {

using server::Opcode;
using server::StoreId;

inline Bytes UploadChunksFrame(const LoadgenConfig& cfg, std::size_t file) {
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(Opcode::kPutChunks));
  w.U32(static_cast<std::uint32_t>(cfg.chunks_per_file));
  for (std::size_t i = 0; i < cfg.chunks_per_file; ++i) {
    Bytes chunk = LoadgenChunk(cfg, file, i);
    w.Raw(chunk::Fingerprint::Of(chunk).AsSpan());
    w.Blob(chunk);
  }
  return w.Take();
}

inline Bytes RecipeFrame(const LoadgenConfig& cfg, std::size_t file) {
  net::Writer recipe;
  recipe.U32(static_cast<std::uint32_t>(cfg.chunks_per_file));
  for (std::size_t i = 0; i < cfg.chunks_per_file; ++i) {
    recipe.Raw(chunk::Fingerprint::Of(LoadgenChunk(cfg, file, i)).AsSpan());
  }
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(Opcode::kPutObject));
  w.U8(static_cast<std::uint8_t>(StoreId::kData));
  w.Str(LoadgenRecipeName(file));
  w.Blob(recipe.bytes());
  return w.Take();
}

inline Bytes GetObjectFrame(StoreId store, const std::string& name) {
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(Opcode::kGetObject));
  w.U8(static_cast<std::uint8_t>(store));
  w.Str(name);
  return w.Take();
}

inline Bytes GetChunksFrame(const LoadgenConfig& cfg, std::size_t file) {
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(Opcode::kGetChunks));
  w.U32(static_cast<std::uint32_t>(cfg.chunks_per_file));
  for (std::size_t i = 0; i < cfg.chunks_per_file; ++i) {
    w.Raw(chunk::Fingerprint::Of(LoadgenChunk(cfg, file, i)).AsSpan());
  }
  return w.Take();
}

inline Bytes PutKeyStateFrame(std::size_t file, std::uint64_t version,
                              crypto::Rng& rng) {
  net::Writer w;
  w.U8(static_cast<std::uint8_t>(Opcode::kPutObject));
  w.U8(static_cast<std::uint8_t>(StoreId::kKey));
  w.Str(LoadgenKeyStateName(file));
  net::Writer state;
  state.U64(version);
  state.Blob(rng.Generate(64));  // fresh (stub) key material
  w.Blob(state.bytes());
  return w.Take();
}

// Per-op outcome, folded into the report by the client loop.
enum class OpOutcome { kOk, kThrottled, kOpError };

inline OpOutcome ClassifyResponse(ByteSpan response) {
  net::Reader r(response);
  if (r.U8() == 0) return OpOutcome::kOk;
  return r.Str().find("throttled") != std::string::npos ? OpOutcome::kThrottled
                                                        : OpOutcome::kOpError;
}

}  // namespace loadgen_detail

// Uploads the whole corpus once (chunks + recipes + key states) over a
// fresh connection, so downloads and rekeys in the measured run never miss.
inline void SeedLoadgenCorpus(std::uint16_t port, const LoadgenConfig& cfg) {
  using namespace loadgen_detail;
  auto channel =
      net::TcpChannel(net::TcpTransport::Connect("127.0.0.1", port));
  crypto::DeterministicRng rng(cfg.seed ^ 0x5eedc0de);
  for (std::size_t f = 0; f < cfg.files; ++f) {
    for (const Bytes& frame :
         {UploadChunksFrame(cfg, f), RecipeFrame(cfg, f),
          PutKeyStateFrame(f, 0, rng)}) {
      // Setup path: ride out admission throttling (the server may already
      // be running with a per-tenant rate for the measured phase).
      for (int attempt = 0;; ++attempt) {
        Bytes response = channel.Call(frame);
        switch (ClassifyResponse(response)) {
          case OpOutcome::kOk:
            break;
          case OpOutcome::kThrottled:
            if (attempt > 500) throw Error("loadgen corpus seed: throttled");
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            continue;
          case OpOutcome::kOpError: {
            net::Reader r(response);
            (void)r.U8();
            throw Error("loadgen corpus seed failed: " + r.Str());
          }
        }
        break;
      }
    }
  }
}

// Runs the configured client fleet against `port` and reports throughput
// plus latency percentiles. Each op is one logical storage operation (1-2
// RPCs); its latency is the full sequence.
inline LoadgenReport RunLoadgen(std::uint16_t port, const LoadgenConfig& cfg) {
  using namespace loadgen_detail;
  using Clock = std::chrono::steady_clock;

  obs::Histogram latency_us;  // local: phases never bleed into each other
  std::atomic<std::uint64_t> ops{0}, net_errors{0}, op_errors{0},
      throttled{0};
  ZipfSampler zipf(cfg.files, cfg.zipf_exponent);

  auto start = Clock::now();
  std::vector<std::thread> fleet;
  fleet.reserve(cfg.clients);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    fleet.emplace_back([&, c] {
      crypto::DeterministicRng rng(cfg.seed * 7919 + c);
      auto connect = [&] {
        return std::make_unique<net::TcpChannel>(
            net::TcpTransport::Connect("127.0.0.1", port));
      };
      std::unique_ptr<net::TcpChannel> channel;
      try {
        channel = connect();
      } catch (const net::NetError&) {
        net_errors.fetch_add(cfg.ops_per_client);
        return;
      }
      for (std::size_t k = 0; k < cfg.ops_per_client; ++k) {
        Clock::time_point scheduled = start;
        if (cfg.target_rate > 0) {
          // Global op (k * clients + c) on the aggregate cadence.
          double at = static_cast<double>(k * cfg.clients + c) /
                      cfg.target_rate;
          scheduled += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(at));
          std::this_thread::sleep_until(scheduled);
        } else {
          scheduled = Clock::now();
        }

        std::size_t file = zipf.Sample(rng);
        unsigned roll = static_cast<unsigned>(rng.Uniform(100));
        std::vector<Bytes> frames;
        if (roll < cfg.upload_pct) {
          frames = {UploadChunksFrame(cfg, file), RecipeFrame(cfg, file)};
        } else if (roll < cfg.upload_pct + cfg.rekey_pct) {
          frames = {GetObjectFrame(StoreId::kKey, LoadgenKeyStateName(file)),
                    PutKeyStateFrame(file, k + 1, rng)};
        } else {
          frames = {GetObjectFrame(StoreId::kData, LoadgenRecipeName(file)),
                    GetChunksFrame(cfg, file)};
        }

        bool ok = true;
        for (Bytes& frame : frames) {
          if (cfg.tenants > 0) {
            frame = net::AsyncServer::WrapTenant(
                static_cast<std::uint32_t>(c % cfg.tenants), frame);
          }
          try {
            switch (ClassifyResponse(channel->Call(frame))) {
              case OpOutcome::kOk:
                break;
              case OpOutcome::kThrottled:
                throttled.fetch_add(1);
                ok = false;
                break;
              case OpOutcome::kOpError:
                op_errors.fetch_add(1);
                ok = false;
                break;
            }
          } catch (const net::NetError&) {
            // Dropped (idle sweep, backpressure, server restart): reconnect
            // and move on to the next op.
            net_errors.fetch_add(1);
            ok = false;
            try {
              channel = connect();
            } catch (const net::NetError&) {
              net_errors.fetch_add(cfg.ops_per_client - k);
              return;
            }
          }
          if (!ok) break;
        }
        ops.fetch_add(1);
        if (ok) {
          auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - scheduled)
                        .count();
          latency_us.Record(static_cast<std::uint64_t>(us));
        }
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  LoadgenReport report;
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  report.ops = ops.load();
  report.net_errors = net_errors.load();
  report.op_errors = op_errors.load();
  report.throttled = throttled.load();
  report.ops_per_sec =
      report.wall_seconds > 0
          ? static_cast<double>(report.ops) / report.wall_seconds
          : 0;
  report.p50_us = latency_us.Percentile(50);
  report.p99_us = latency_us.Percentile(99);
  report.p999_us = latency_us.Percentile(99.9);
  return report;
}

}  // namespace reed::bench
