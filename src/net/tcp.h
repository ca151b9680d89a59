// Blocking TCP transport with u32 length-prefixed frames: the client side
// of the wire. The server side is net::AsyncServer, which speaks the same
// framing over non-blocking sockets from a TcpListener's fd.
//
// The simulated link reproduces the paper's testbed *shapes*; this real
// socket transport is what a deployment would use between REED clients,
// the key manager, and the servers. An integration test and the
// multi-client example run the full protocol stack over loopback TCP.
#pragma once

#include <cstdint>
#include <string>

#include "net/wire.h"
#include "util/bytes.h"

namespace reed::net {

class NetError : public Error {
 public:
  using Error::Error;
};

// One connected duplex stream. Movable, not copyable; closes on destruction.
class TcpTransport {
 public:
  explicit TcpTransport(int fd) : fd_(fd) {}
  ~TcpTransport();

  TcpTransport(TcpTransport&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  TcpTransport& operator=(TcpTransport&& other) noexcept;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] static TcpTransport Connect(const std::string& host, std::uint16_t port);

  // Writes one frame (length prefix + payload). Throws NetError on failure.
  void Send(ByteSpan frame);

  // Largest frame Receive accepts: the net::Reader blob cap.
  static constexpr std::uint32_t kMaxFrameLen = Reader::kDefaultMaxBlobLen;

  // Reads one frame; throws NetError on close/failure, and on a length
  // prefix above kMaxFrameLen before allocating anything for it.
  [[nodiscard]] Bytes Receive();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

 private:
  int fd_;
};

class TcpListener {
 public:
  // Binds 127.0.0.1:port; port 0 picks an ephemeral port. backlog <= 0
  // means SOMAXCONN — a load generator's connection burst should queue in
  // the kernel, not bounce off a short default backlog.
  explicit TcpListener(std::uint16_t port, int backlog = 0);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  // The listening socket; AsyncServer registers it with epoll and accepts
  // on it itself. Ownership stays here.
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
  std::uint16_t port_;
};

}  // namespace reed::net
