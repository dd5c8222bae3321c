// The line-protocol front end shared by the query server and the cluster
// router: loopback listener and accept loop, one thread per connection,
// pipelined-line drain, request parsing (timed into serve_stage_parse_us),
// the in-order contract, the serve_open_connections gauge, and the
// "listening" / "ready port=" banner (docs/SERVING.md, "Pipelining IS
// batching — and strict ordering"). Each process supplies two handlers.
// All socket work goes through warp/serve/net.h.

#ifndef WARP_SERVE_FRONT_END_H_
#define WARP_SERVE_FRONT_END_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "warp/serve/protocol.h"
#include "warp/serve/request.h"

namespace warp {
namespace serve {

struct FrontEndHandlers {
  // One run of consecutive queries in wire order -> exactly one reply line
  // per query, in the same order. parse_us[i] is queries[i]'s parse time.
  std::function<void(std::vector<ServeRequest> queries,
                     const std::vector<double>& parse_us,
                     std::vector<std::string>* replies)>
      queries;
  // One control op -> its reply line; `raw` is the op's wire line. The
  // queries before it on the wire have already been answered.
  std::function<std::string(const ParsedLine& parsed, const std::string& raw)>
      control;
};

class FrontEnd {
 public:
  explicit FrontEnd(FrontEndHandlers handlers);
  ~FrontEnd();  // RequestShutdown() and join every connection thread.

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  // Binds 127.0.0.1:`port` (0 = kernel-assigned; see port()).
  bool Start(uint16_t port, std::string* error);
  int port() const;

  // Serves until RequestShutdown() or a client's `shutdown`, then joins
  // every connection thread. While serving, the accept loop joins and
  // closes each connection its client has left. RequestShutdown is safe
  // from any thread.
  void Serve();
  void RequestShutdown();

  // Start() + "<program> listening on 127.0.0.1:<port>" and "ready
  // port=<port>" on stdout + Serve(). Returns a process exit code.
  int Run(const char* program, uint16_t port);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_FRONT_END_H_
