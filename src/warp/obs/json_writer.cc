#include "warp/obs/json_writer.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "warp/common/assert.h"

namespace warp {
namespace obs {

namespace {

// Appends `value` by the one double rule: the first of 15, 16 and 17
// significant digits, in printf's %.*g form, that reads back to the same
// value; "null" for NaN and infinities. std::to_chars' general format
// with a precision is specified to write exactly what %.*g writes.
void AppendDouble(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buffer[32];  // "-1.2345678901234567e-308" is the longest form.
  char* end = buffer;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                        std::chars_format::general, precision)
              .ptr;
    // 17 digits always read back; only the shorter forms need the check.
    double back = 0.0;
    if (precision == 17 ||
        (std::from_chars(buffer, end, back).ec == std::errc() &&
         back == value)) {
      break;
    }
  }
  out->append(buffer, end);
}

}  // namespace

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  done_ = false;  // The container completes at its EndObject().
  out_.push_back('{');
  stack_.push_back(Scope{/*is_object=*/true, /*has_items=*/false});
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  WARP_CHECK(!stack_.empty() && stack_.back().is_object);
  WARP_CHECK(!pending_key_);
  out_.push_back('}');
  stack_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  done_ = false;  // The container completes at its EndArray().
  out_.push_back('[');
  stack_.push_back(Scope{/*is_object=*/false, /*has_items=*/false});
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  WARP_CHECK(!stack_.empty() && !stack_.back().is_object);
  out_.push_back(']');
  stack_.pop_back();
  if (stack_.empty()) done_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  WARP_CHECK(!stack_.empty() && stack_.back().is_object);
  WARP_CHECK(!pending_key_);
  if (stack_.back().has_items) out_.push_back(',');
  stack_.back().has_items = true;
  out_.push_back('"');
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_.push_back('"');
  out_ += Escape(value);
  out_.push_back('"');
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  AppendDouble(value, &out_);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

const std::string& JsonWriter::TakeOutput() {
  WARP_CHECK(done_ && stack_.empty() && !pending_key_);
  return out_;
}

void JsonWriter::BeforeValue() {
  WARP_CHECK(!done_);  // Only one top-level value per document.
  if (stack_.empty()) {
    // Top-level value: nothing to separate, and a scalar here is already
    // a complete document (Begin* resets done_ until its matching End*).
    done_ = true;
    return;
  }
  if (stack_.back().is_object) {
    // Inside an object a value must follow a Key() (which already wrote
    // the separator and colon).
    WARP_CHECK(pending_key_);
    pending_key_ = false;
    return;
  }
  if (stack_.back().has_items) out_.push_back(',');
  stack_.back().has_items = true;
}

std::string JsonWriter::Escape(std::string_view value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\b':
        escaped += "\\b";
        break;
      case '\f':
        escaped += "\\f";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\r':
        escaped += "\\r";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          escaped += buffer;
        } else {
          // Includes UTF-8 multibyte sequences, passed through verbatim —
          // JSON strings are Unicode and need no \u escaping for them.
          escaped.push_back(c);
        }
        break;
    }
  }
  return escaped;
}

std::string JsonWriter::FormatDouble(double value) {
  std::string text;
  AppendDouble(value, &text);
  return text;
}

}  // namespace obs
}  // namespace warp
