#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace reed::net {

namespace {

[[noreturn]] void ThrowErrno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

void WriteAll(int fd, const std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that closed mid-exchange must surface as EPIPE
    // (-> NetError), not a process-wide SIGPIPE.
    ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("TcpTransport::Send");
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

void ReadAll(int fd, std::uint8_t* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("TcpTransport::Receive");
    }
    if (n == 0) throw NetError("TcpTransport::Receive: peer closed");
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

TcpTransport& TcpTransport::operator=(TcpTransport&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpTransport::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpTransport TcpTransport::Connect(const std::string& host, std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) ThrowErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw NetError("TcpTransport::Connect: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ThrowErrno("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpTransport(fd);
}

void TcpTransport::Send(ByteSpan frame) {
  if (fd_ < 0) throw NetError("TcpTransport::Send: closed transport");
  std::uint8_t len[4];
  PutU32(len, static_cast<std::uint32_t>(frame.size()));
  WriteAll(fd_, len, 4);
  WriteAll(fd_, frame.data(), frame.size());
}

Bytes TcpTransport::Receive() {
  if (fd_ < 0) throw NetError("TcpTransport::Receive: closed transport");
  std::uint8_t len_buf[4];
  ReadAll(fd_, len_buf, 4);
  std::uint32_t len = GetU32(len_buf);
  // The peer's length is checked before anything is allocated for it, at
  // the cap net::Reader puts on any one blob.
  if (len > kMaxFrameLen) {
    throw NetError("TcpTransport::Receive: frame of " + std::to_string(len) +
                   " bytes exceeds the " + std::to_string(kMaxFrameLen) +
                   "-byte cap");
  }
  Bytes frame(len);
  ReadAll(fd_, frame.data(), len);
  return frame;
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    ThrowErrno("bind");
  }
  if (backlog <= 0) backlog = SOMAXCONN;
  if (::listen(fd_, backlog) != 0) {
    ::close(fd_);
    ThrowErrno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    ThrowErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpListener::Shutdown() {
  // shutdown() on a listening socket makes pending and future accept()
  // calls fail (EINVAL on Linux) without closing the fd out from under a
  // concurrently blocked acceptor thread.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpTransport TcpListener::Accept() {
  int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) ThrowErrno("accept");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpTransport(fd);
}

}  // namespace reed::net
