#include "warp/serve/wire.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace warp {
namespace serve {

namespace {

// Guards against hostile input: deeper nesting than any legal request
// uses, and a token budget far above any legal request size.
constexpr int kMaxDepth = 32;
constexpr size_t kMaxElements = 1u << 22;  // ~4M values per document.

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

// Sign and magnitude of an integral number of magnitude below 2^64.
bool JsonValue::AsInteger(bool* negative, uint64_t* magnitude) const {
  if (kind_ != Kind::kNumber) return false;
  if (exact_) {
    *negative = negative_ && magnitude_ != 0;
    *magnitude = magnitude_;
    return true;
  }
  const double m = std::fabs(number_);
  if (!(m < 0x1p64) || std::floor(m) != m) return false;
  *negative = number_ < 0.0;
  *magnitude = static_cast<uint64_t>(m);
  return true;
}

bool JsonValue::AsInt64(int64_t* out) const {
  bool negative = false;
  uint64_t m = 0;
  if (!AsInteger(&negative, &m) || m > (uint64_t{1} << 63) - !negative) {
    return false;
  }
  // Two's-complement negation in uint64: exact even for INT64_MIN.
  *out = static_cast<int64_t>(negative ? ~m + 1 : m);
  return true;
}

bool JsonValue::AsUint64(uint64_t* out) const {
  bool negative = false;
  uint64_t m = 0;
  if (!AsInteger(&negative, &m) || negative) return false;
  *out = m;
  return true;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* value, std::string* error) {
    SkipWhitespace();
    if (!ParseValue(value, 0)) {
      *error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      *error = "trailing characters after JSON value at offset " +
               std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      return Fail(std::string("invalid literal, expected '") + literal + "'");
    }
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* value, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (++elements_ > kMaxElements) return Fail("document too large");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        value->kind_ = JsonValue::Kind::kNull;
        return ConsumeLiteral("null");
      case 't':
        value->kind_ = JsonValue::Kind::kBool;
        value->bool_ = true;
        return ConsumeLiteral("true");
      case 'f':
        value->kind_ = JsonValue::Kind::kBool;
        value->bool_ = false;
        return ConsumeLiteral("false");
      case '"':
        value->kind_ = JsonValue::Kind::kString;
        return ParseString(&value->string_);
      case '[':
        return ParseArray(value, depth);
      case '{':
        return ParseObject(value, depth);
      default:
        return ParseNumber(value);
    }
  }

  bool ParseNumber(JsonValue* value) {
    const char c = text_[pos_];
    if (c != '-' && (c < '0' || c > '9')) {
      return Fail("unexpected character");
    }
    // from_chars, like strtod, accepts more than JSON numbers (inf, nan,
    // "1.", ".5"); restrict to the JSON grammar by scanning the token
    // first.
    size_t end = pos_;
    if (text_[end] == '-') ++end;
    const size_t int_start = end;
    while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') {
      ++end;
    }
    if (end == int_start) return Fail("malformed number");
    if (text_[int_start] == '0' && end - int_start > 1) {
      return Fail("malformed number (leading zero)");
    }
    const size_t int_end = end;
    if (end < text_.size() && text_[end] == '.') {
      ++end;
      const size_t frac_start = end;
      while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') {
        ++end;
      }
      if (end == frac_start) return Fail("malformed number (empty fraction)");
    }
    if (end < text_.size() && (text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
      if (end < text_.size() && (text_[end] == '+' || text_[end] == '-')) {
        ++end;
      }
      const size_t exp_start = end;
      while (end < text_.size() && text_[end] >= '0' && text_[end] <= '9') {
        ++end;
      }
      if (end == exp_start) return Fail("malformed number (empty exponent)");
    }
    const char* const first = text_.data() + pos_;
    const char* const last = text_.data() + end;
    double parsed = 0.0;
    const auto [stop, status] = std::from_chars(first, last, parsed);
    if (stop != last) return Fail("malformed number");
    if (status == std::errc::result_out_of_range) {
      // from_chars refuses underflow as well as overflow. The wire reads
      // an underflow as strtod does, a signed zero or a subnormal; an
      // overflow reads as infinity and is refused below.
      parsed = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    if (!std::isfinite(parsed)) return Fail("number out of range");
    value->kind_ = JsonValue::Kind::kNumber;
    value->number_ = parsed;
    // An integer literal also keeps its exact value when it fits 64 bits.
    uint64_t magnitude = 0;
    bool fits = end == int_end;
    for (size_t i = int_start; i < int_end && fits; ++i) {
      const uint64_t digit = static_cast<uint64_t>(text_[i] - '0');
      fits = magnitude <= (~uint64_t{0} - digit) / 10;
      magnitude = magnitude * 10 + digit;
    }
    value->exact_ = fits;
    value->negative_ = text_[pos_] == '-';
    value->magnitude_ = magnitude;
    pos_ = end;
    return true;
  }

  bool ParseHex4(uint32_t* code_point) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t result = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      result <<= 4;
      if (c >= '0' && c <= '9') result |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') result |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') result |= static_cast<uint32_t>(c - 'A' + 10);
      else return Fail("invalid \\u escape digit");
    }
    pos_ += 4;
    *code_point = result;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (!Consume('\\') || !Consume('u')) {
              return Fail("unpaired surrogate");
            }
            uint32_t low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  bool ParseArray(JsonValue* value, int depth) {
    Consume('[');
    value->kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue element;
      SkipWhitespace();
      if (!ParseValue(&element, depth + 1)) return false;
      value->array_.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* value, int depth) {
    Consume('{');
    value->kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' after object key");
      SkipWhitespace();
      JsonValue member;
      if (!ParseValue(&member, depth + 1)) return false;
      value->object_[std::move(key)] = std::move(member);
      SkipWhitespace();
      if (Consume('}')) return true;
      if (!Consume(',')) return Fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t elements_ = 0;
  std::string error_;
};

bool ParseJson(std::string_view text, JsonValue* value, std::string* error) {
  JsonParser parser(text);
  return parser.Parse(value, error);
}

}  // namespace serve
}  // namespace warp
