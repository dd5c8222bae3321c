// Wire-format JSON parsing for the serving protocol.
//
// The serving layer speaks line-delimited JSON (docs/SERVING.md). The
// library already owns a strict JSON *emitter* (warp/obs/json_writer.h);
// this is its read-side counterpart: a small recursive-descent parser for
// one complete JSON value, dependency-free, with depth and size limits so
// a hostile client cannot blow the stack or the heap. Numbers parse with
// std::from_chars (an underflow reads as strtod reads it, a signed zero
// or a subnormal), so any double emitted by JsonWriter::FormatDouble
// round-trips to the identical bits — the property the result-cache and
// golden serving tests rely on. Integer literals additionally keep their
// exact 64-bit value, so ReadInteger below never rounds a counter or an
// id.

#ifndef WARP_SERVE_WIRE_H_
#define WARP_SERVE_WIRE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace warp {
namespace serve {

// A parsed JSON value. Objects keep their members in a sorted map (the
// protocol never depends on member order); numbers are always doubles,
// matching the emitter.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const std::vector<JsonValue>& AsArray() const { return array_; }
  const std::map<std::string, JsonValue>& AsObject() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with defaults, for flat request objects.
  double NumberOr(const std::string& key, double fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  // Exact integer views (prefer ReadInteger): false unless the number is
  // integral and fits. Integer literals read digit-exact, other spellings
  // (1e3, 5.0) through their double.
  bool AsInt64(int64_t* out) const;
  bool AsUint64(uint64_t* out) const;

 private:
  friend class JsonParser;

  bool AsInteger(bool* negative, uint64_t* magnitude) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  // An integer literal whose magnitude fits in 64 bits: its exact value.
  bool exact_ = false;
  bool negative_ = false;
  double number_ = 0.0;
  uint64_t magnitude_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses exactly one JSON value spanning all of `text` (surrounding
// whitespace allowed). On failure returns false and fills *error with a
// position-annotated message; *value is unspecified.
bool ParseJson(std::string_view text, JsonValue* value, std::string* error);

// The checked integer reader every protocol parser uses: true, with
// *out set, only when `value` is an integral number in [lo, max of T].
// Anything else — fractions, negatives for unsigned fields, values too
// big for the field — leaves *out untouched.
template <typename T>
bool ReadInteger(const JsonValue& value, T* out,
                 T lo = std::numeric_limits<T>::min()) {
  constexpr T hi = std::numeric_limits<T>::max();
  if constexpr (std::is_signed_v<T>) {
    int64_t v = 0;
    if (!value.AsInt64(&v) || v < lo || v > hi) return false;
    *out = static_cast<T>(v);
  } else {
    uint64_t v = 0;
    if (!value.AsUint64(&v) || v < lo || v > hi) return false;
    *out = static_cast<T>(v);
  }
  return true;
}

}  // namespace serve
}  // namespace warp

#endif  // WARP_SERVE_WIRE_H_
