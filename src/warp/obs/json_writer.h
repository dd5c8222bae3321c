// A small, dependency-free JSON emitter for bench reports.
//
// Scope: streaming write-only construction of one document. Correctness
// over features — proper string escaping (control characters as \u00XX,
// UTF-8 passed through), round-trip double formatting, nesting
// validated with WARP_CHECK so a malformed emission aborts instead of
// producing unparseable output. Non-finite doubles become null, since
// JSON has no Inf/NaN and the DTW code uses +inf as a sentinel.

#ifndef WARP_OBS_JSON_WRITER_H_
#define WARP_OBS_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace warp {
namespace obs {

class JsonWriter {
 public:
  JsonWriter() = default;

  // Containers. A document is exactly one top-level value; Key() is only
  // legal directly inside an object, values only inside an array or after
  // a Key().
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);

  // Scalar values.
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  // Splices `json` in value position verbatim. `json` must itself be a
  // valid JSON value (e.g. a scalar previously produced by Escape /
  // FormatDouble / std::to_string) — the writer does not re-validate it.
  JsonWriter& RawValue(std::string_view json);

  // The finished document. WARP_CHECKs that every container was closed.
  const std::string& TakeOutput();

  // `value` with JSON string escaping applied (no surrounding quotes).
  static std::string Escape(std::string_view value);

  // The first of 15, 16 and 17 significant digits, in printf's %.*g
  // form, that reads back to the same value (std::to_chars, checked with
  // std::from_chars); "null" for NaN/Inf. Double() appends the same
  // bytes.
  static std::string FormatDouble(double value);

 private:
  struct Scope {
    bool is_object = false;
    bool has_items = false;
  };

  // Comma/placement bookkeeping shared by every value-emitting method.
  void BeforeValue();

  std::string out_;
  std::vector<Scope> stack_;
  bool pending_key_ = false;
  bool done_ = false;
};

}  // namespace obs
}  // namespace warp

#endif  // WARP_OBS_JSON_WRITER_H_
