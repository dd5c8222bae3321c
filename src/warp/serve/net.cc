#include "warp/serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace warp {
namespace serve {

namespace {

// Upper bound on one protocol line; a 1M-point query of 24-char doubles
// is ~25 MiB, so 64 MiB leaves headroom without letting a broken client
// buffer unboundedly.
constexpr size_t kMaxLineBytes = 64u << 20;

constexpr size_t kReadChunk = 64 * 1024;

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpConn::~TcpConn() { Close(); }

TcpConn::TcpConn(TcpConn&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

bool TcpConn::ReadLine(std::string* line) {
  line->clear();
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    if (fd_ < 0 || buffer_.size() > kMaxLineBytes) return false;

    char chunk[kReadChunk];
    ssize_t got;
    do {
      got = recv(fd_, chunk, sizeof(chunk), 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return false;  // EOF or error.
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

bool TcpConn::HasBufferedLine() const {
  return buffer_.find('\n') != std::string::npos;
}

bool TcpConn::WaitReadable(int timeout_ms) {
  if (HasBufferedLine()) return true;
  if (fd_ < 0) return false;
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  int ready;
  do {
    ready = poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  return ready > 0;
}

bool TcpConn::WriteAll(std::string_view data) {
  if (fd_ < 0) return false;
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    ssize_t sent;
    do {
      sent = send(fd_, p, left, MSG_NOSIGNAL);
    } while (sent < 0 && errno == EINTR);
    if (sent <= 0) return false;
    p += sent;
    left -= static_cast<size_t>(sent);
  }
  return true;
}

void TcpConn::ShutdownBoth() {
  if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
}

void TcpConn::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

TcpListener::~TcpListener() { Close(); }

bool TcpListener::Listen(uint16_t port, std::string* error) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind 127.0.0.1:") + std::to_string(port) + ": " +
             std::strerror(errno);
    Close();
    return false;
  }
  if (listen(fd_, 64) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    Close();
    return false;
  }

  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    Close();
    return false;
  }
  port_ = ntohs(addr.sin_port);
  return true;
}

TcpConn TcpListener::AcceptWithTimeout(int timeout_ms, bool* timed_out) {
  *timed_out = false;
  if (fd_ < 0) return TcpConn();

  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  int ready;
  do {
    ready = poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready == 0) {
    *timed_out = true;
    return TcpConn();
  }
  if (ready < 0) return TcpConn();

  int client;
  do {
    client = accept(fd_, nullptr, nullptr);
  } while (client < 0 && errno == EINTR);
  if (client < 0) {
    // Out of descriptors or buffers, or a client that gave up mid
    // handshake: the listener is fine. Back off one timeout (the pending
    // connection would wake poll at once) and let the caller retry.
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM || errno == ECONNABORTED) {
      poll(nullptr, 0, timeout_ms);
      *timed_out = true;
    }
    return TcpConn();
  }
  SetNoDelay(client);
  return TcpConn(client);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  port_ = 0;
}

TcpConn ConnectLoopbackTimeout(int port, int timeout_ms,
                               std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return TcpConn();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  int rc;
  do {
    rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno != EINPROGRESS) {
    *error = std::string("connect 127.0.0.1:") + std::to_string(port) + ": " +
             std::strerror(errno);
    close(fd);
    return TcpConn();
  }
  if (rc != 0) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int ready;
    do {
      ready = poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (ready <= 0 ||
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      *error = std::string("connect 127.0.0.1:") + std::to_string(port) +
               ": " + (ready <= 0 ? "timed out" : std::strerror(soerr));
      close(fd);
      return TcpConn();
    }
  }
  // Back to blocking mode for the ReadLine/WriteAll discipline.
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  SetNoDelay(fd);
  return TcpConn(fd);
}

TcpConn ConnectLoopback(int port, std::string* error) {
  return ConnectLoopbackTimeout(port, /*timeout_ms=*/-1, error);
}

}  // namespace serve
}  // namespace warp
