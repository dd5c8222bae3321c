// Loopback TCP primitives for the serve subsystem.
//
// The ONLY files in the repository allowed to issue raw socket syscalls
// (enforced by scripts/lint.sh): everything else — server, client, tools,
// tests — goes through TcpListener / TcpConn. The listener binds
// 127.0.0.1 exclusively; this subsystem is an in-process/loopback query
// service, not an exposed network daemon (docs/SERVING.md).

#ifndef WARP_SERVE_NET_H_
#define WARP_SERVE_NET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace warp {
namespace serve {

// A connected stream with buffered line reading. Movable, not copyable;
// closes on destruction.
class TcpConn {
 public:
  TcpConn() = default;
  explicit TcpConn(int fd) : fd_(fd) {}
  ~TcpConn();

  TcpConn(TcpConn&& other) noexcept;
  TcpConn& operator=(TcpConn&& other) noexcept;
  TcpConn(const TcpConn&) = delete;
  TcpConn& operator=(const TcpConn&) = delete;

  bool valid() const { return fd_ >= 0; }

  // Reads one '\n'-terminated line (terminator stripped, '\r' too).
  // Returns false on EOF or error. Lines above the protocol's size cap
  // (64 MiB) fail the connection rather than buffering unboundedly.
  // `timeout_ms` >= 0 bounds the wait for the whole line, not only for
  // its first byte: a peer that stalls mid-line costs at most that long
  // (false, with the part read so far still buffered). < 0: no limit.
  // The cluster's worker clients bound every reply this way, so a wedged
  // worker cannot hold the router or the supervisor's monitor.
  bool ReadLine(std::string* line, int timeout_ms = -1);

  // True when at least one complete line is already buffered — the
  // server's cue to keep draining before answering, forming a pipeline
  // batch.
  bool HasBufferedLine() const;

  // Writes all of `data`; returns false on error.
  bool WriteAll(std::string_view data);

  // Half-closes both directions so a blocked reader unblocks (used for
  // server shutdown); Close() releases the descriptor.
  void ShutdownBoth();
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

// A listening socket bound to 127.0.0.1.
class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds and listens on loopback `port` (0 = kernel-assigned; port()
  // reports the actual one). Returns false and fills *error on failure.
  bool Listen(uint16_t port, std::string* error);

  int port() const { return port_; }
  bool valid() const { return fd_ >= 0; }

  // Waits up to `timeout_ms` for a connection. Returns a valid TcpConn,
  // or an invalid one on timeout/closure (distinguish with *timed_out).
  // A transient accept failure (EMFILE, ENFILE, ENOBUFS, ENOMEM,
  // ECONNABORTED) waits out `timeout_ms` and reports a timeout, so the
  // caller retries; only a closed or failed listener returns with
  // *timed_out false.
  TcpConn AcceptWithTimeout(int timeout_ms, bool* timed_out);

  void Close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

// Connects to 127.0.0.1:`port`. Returns an invalid conn and fills *error
// on failure.
TcpConn ConnectLoopback(int port, std::string* error);

// Like ConnectLoopback but gives up after `timeout_ms` (< 0: never)
// instead of blocking in connect(). The cluster router and supervisor use
// this so a wedged worker costs a bounded wait, not a hang.
TcpConn ConnectLoopbackTimeout(int port, int timeout_ms, std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_NET_H_
