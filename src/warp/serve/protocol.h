// The line-delimited JSON wire protocol (docs/SERVING.md).
//
// One request object per line in, one response object per line out,
// matched by the client-chosen `id`. This layer converts between wire
// lines and the typed structs in warp/serve/request.h; it never touches
// sockets or the engine. Doubles are emitted with
// JsonWriter::FormatDouble (the first of 15, 16 and 17 significant digits
// that reads back to the same value) and parsed with std::from_chars, so
// distances survive the wire bit-for-bit — the loopback golden tests
// compare them with EXPECT_EQ.

#ifndef WARP_SERVE_PROTOCOL_H_
#define WARP_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "warp/serve/request.h"

namespace warp {
namespace serve {

class JsonValue;

// Operations the server answers without the query engine.
enum class ControlOp {
  kNone,      // Not a control op: `request` holds a query.
  kPing,      // Liveness check.
  kInfo,      // Describe a dataset (size, length, epoch, indexed bands).
  kStats,     // Counters, cache, gauges, histograms, slowlog summary.
  kMetrics,   // warp-metrics-v1 text exposition (docs/SERVING.md).
  kSlowlog,   // Drain the slow-query log (sorted by engine time, desc).
  kTelemetry,  // The typed telemetry snapshot, lossless (serve/telemetry.h).
  kLoad,      // Load a UCR file into the store.
  kSaveSnapshot,  // Persist a dataset's index as a warp-snap-v1 file.
  kLoadSnapshot,  // Register a dataset from a warp-snap-v1 file.
  kShutdown,  // Finish open work and exit the serve loop.
};

// A parsed request line: either a control op or an engine query.
struct ParsedLine {
  int64_t id = 0;
  ControlOp control = ControlOp::kNone;
  ServeRequest request;          // Valid when control == kNone.
  std::string dataset;           // info / load / save_snapshot; optional
                                 // rename for load_snapshot.
  std::string path;              // load / save_snapshot / load_snapshot.
  std::vector<double> band_fractions;  // load ("bands" member).
};

// Parses one wire line. On failure returns false and fills *error with a
// client-presentable message (*out->id is still filled when the line had
// a readable id, so the error response can echo it). Integer fields go
// through ReadInteger (wire.h): a present value that is fractional,
// negative where unsigned, or too big for its field is an error, never
// a silent cast.
bool ParseRequestLine(const std::string& line, ParsedLine* out,
                      std::string* error);

// Serializes a query response (ok or error) as one line, no trailing
// newline.
std::string FormatResponse(const ServeResponse& response);

// An error response line for requests that never reached the engine.
std::string FormatErrorLine(int64_t id, const std::string& error);

// A bare success line, {"id":…,"ok":true,"op":…}: the ping and shutdown
// acknowledgements.
std::string FormatAckLine(int64_t id, const char* op);

// The dataset an `info`, `load` or `load_snapshot` reply describes.
struct DatasetInfo {
  std::string dataset;
  uint64_t size = 0;
  uint64_t length = 0;
  uint64_t epoch = 0;
  uint64_t shards = 0;
  std::vector<uint64_t> bands;
};

// The reply of those three ops: dataset, size, length and epoch, then
// shards (not for `load`), then for `info` the port, the worker marker
// (`worker_shard` >= 0, cluster workers only) and the indexed bands.
std::string FormatDatasetReply(int64_t id, ControlOp op,
                               const DatasetInfo& info, int port = 0,
                               long worker_shard = -1);

// Reads the DatasetInfo of an ok FormatDatasetReply line: `dataset`,
// `size` and `epoch` are required, the rest default when absent. False
// when a field is missing or out of range.
bool ReadDatasetInfo(const JsonValue& reply, DatasetInfo* out);

// Serializes a query request as one wire line, no trailing newline.
// Every parameter ParseRequestLine reads is emitted explicitly, so
// ParseRequestLine(FormatRequest(r)) reconstructs `r` field-for-field
// (doubles bit-for-bit via FormatDouble <-> from_chars).
std::string FormatRequest(const ServeRequest& request);

// One query's request line, formatted once and stamped per shard: the
// cluster router sends every shard the same line but for its ("shard",
// "shard_epoch") stamp, which sits just before the `query` array.
// AppendStamped(s, e, out) appends FormatRequest of the request with
// shard_filter s and require_epoch e, byte for byte; FormatRequest is
// built the same way.
class RequestSplice {
 public:
  explicit RequestSplice(const ServeRequest& request);

  // `shard` < 0 writes no "shard", `epoch` 0 no "shard_epoch"; no
  // trailing newline.
  void AppendStamped(long shard, uint64_t epoch, std::string* out) const;

 private:
  std::string head_;  // '{' through the "trace" member.
  std::string tail_;  // ',"query":[...]}'.
};

// Parses a response line (the inverse of FormatResponse, minus the trace
// echo) into a typed ServeResponse. The cluster router uses this to
// gather worker sub-scan replies; distances survive bit-for-bit, so a
// re-serialized merge is byte-identical to the single-process answer. A
// reply whose `ok` is not a bool, an error reply without an `error`
// string, and a neighbor or dist/subsequence reply whose distance is
// missing or not a number (a non-finite one is written null) are refused.
bool ParseResponseLine(const std::string& line, ServeResponse* out,
                       std::string* error);

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_PROTOCOL_H_
