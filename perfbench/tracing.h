// Span recording for the traced run (README.md, "Traced run").
//
// The benchmark owns every span: a root span per client operation, an
// RpcChannel decorator around each client connection (keymanager.rpc,
// server.rpc.<opcode>) and a wrapper around each handler passed to
// net::AsyncServer (keymanager.handle, server.handle.<opcode>). Nothing is
// recorded inside the library. Spans stay in memory until the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"

namespace perfbench {

using reed::Bytes;
using reed::ByteSpan;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root, or a handler aggregated per opcode
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    std::lock_guard lock(mu_);
    spans_.push_back(std::move(span));
  }
  [[nodiscard]] std::vector<Span> Take() {
    std::lock_guard lock(mu_);
    return std::exchange(spans_, {});
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// The operation a client is running; its RPC spans hang under it. One per
// ReedClient, whose operations never overlap.
struct OpContext {
  std::atomic<std::uint64_t> op_id{0};
};

// Storage-server opcode names (server::Opcode values 1..6).
inline const char* OpcodeName(std::uint8_t op) {
  static const char* const kNames[] = {"unknown",    "put_chunks",
                                       "get_chunks", "put_object",
                                       "get_object", "has_object",
                                       "get_stats"};
  return op < 7 ? kNames[op] : "unknown";
}

// Names a request: "keymanager" for key-manager frames, else the opcode.
inline std::string RequestLabel(bool key_manager, ByteSpan request) {
  if (key_manager) return "keymanager";
  return std::string("server.") +
         OpcodeName(request.empty() ? 0 : request[0]);
}

// RpcChannel decorator: one span per call, parented to the client's
// current operation, plus wire byte counts.
class TracingChannel : public reed::net::RpcChannel {
 public:
  TracingChannel(std::unique_ptr<reed::net::RpcChannel> inner, bool key_manager,
                 Tracer& tracer, OpContext& ctx,
                 std::atomic<std::uint64_t>& bytes_out,
                 std::atomic<std::uint64_t>& bytes_in)
      : inner_(std::move(inner)),
        key_manager_(key_manager),
        tracer_(tracer),
        ctx_(ctx),
        bytes_out_(bytes_out),
        bytes_in_(bytes_in) {}

  [[nodiscard]] Bytes Call(ByteSpan request) override {
    if (!tracer_.enabled()) return inner_->Call(request);
    Span span;
    span.start_ns = NowNs();
    Bytes response = inner_->Call(request);
    span.end_ns = NowNs();
    span.id = tracer_.NewId();
    span.parent = ctx_.op_id.load(std::memory_order_relaxed);
    span.name = RequestLabel(key_manager_, request) + ".rpc";
    bytes_out_.fetch_add(request.size(), std::memory_order_relaxed);
    bytes_in_.fetch_add(response.size(), std::memory_order_relaxed);
    tracer_.Record(std::move(span));
    return response;
  }

 private:
  std::unique_ptr<reed::net::RpcChannel> inner_;
  bool key_manager_;
  Tracer& tracer_;
  OpContext& ctx_;
  std::atomic<std::uint64_t>& bytes_out_;
  std::atomic<std::uint64_t>& bytes_in_;
};

// Wraps a service handler so each request served records a handler span.
inline reed::net::LocalChannel::Handler TracedHandler(
    reed::net::LocalChannel::Handler inner, bool key_manager, Tracer& tracer) {
  return [inner = std::move(inner), key_manager,
          &tracer](ByteSpan request) -> Bytes {
    if (!tracer.enabled()) return inner(request);
    Span span;
    span.start_ns = NowNs();
    Bytes response = inner(request);
    span.end_ns = NowNs();
    span.id = tracer.NewId();
    span.name = RequestLabel(key_manager, request) + ".handle";
    tracer.Record(std::move(span));
    return response;
  };
}

}  // namespace perfbench
