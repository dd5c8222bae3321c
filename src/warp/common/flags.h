// Command-line flags: the one argv parser of every warp binary (tools/,
// bench/ and examples/).
//
// Syntax: "--name=value", a bare "--name" (the value "true"), and
// positional arguments in order. A repeatable flag (--data, --gen,
// --snapshot-dir, --disable) keeps every occurrence for GetAll(); the
// other getters read the last one.
//
// Every getter checks the whole value against the range it states and
// marks the flag read. Usage errors exit 2 before any work:
//   <tool>: invalid --name=value (expected …)   a bad or out-of-range value
//   <tool>: unknown flag --name                 at Finalize(), a flag no
//                                               getter read
//   <tool>: unexpected argument 'x'             at Finalize(), a stray
//                                               positional
// Runtime failures, such as a missing file, stay the caller's (exit 1).

#ifndef WARP_COMMON_FLAGS_H_
#define WARP_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace warp {

// The checked reader behind every numeric getter, for values the getters
// do not split themselves (the fields of --gen): the whole of `text` as a
// T in [lo, hi] — no blanks, no trailing characters, no hex, inf or nan.
template <typename T>
bool ReadNumber(std::string_view text, T lo, T hi, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end ||
      !(value >= lo && value <= hi)) {
    return false;
  }
  *out = value;
  return true;
}

// "a,b,,c" -> {"a", "b", "", "c"}; the empty text is the empty list.
std::vector<std::string> SplitList(std::string_view text);

class Flags {
 public:
  static constexpr int64_t kNoMin = std::numeric_limits<int64_t>::min();
  static constexpr int64_t kNoMax = std::numeric_limits<int64_t>::max();

  // Parses argv[1..argc); messages name the tool by argv[0]'s basename.
  Flags(int argc, char** argv);

  // The next positional argument not yet read ("" when none is left), all
  // of them, or the next as an integer in [min, max] (`what` names it).
  std::string NextPositional();
  std::vector<std::string> Positionals();
  int64_t PositionalInt(const std::string& what, int64_t default_value,
                        int64_t min, int64_t max);

  bool Has(const std::string& name) { return Find(name) != nullptr; }
  std::string GetString(const std::string& name,
                        const std::string& default_value) {
    const Arg* arg = Find(name);
    return arg == nullptr ? default_value : arg->value;
  }
  std::vector<std::string> GetAll(const std::string& name);
  int64_t GetInt(const std::string& name, int64_t default_value,
                 int64_t min = kNoMin, int64_t max = kNoMax) {
    return Read(Find(name), default_value, min, max, "an integer");
  }
  // A count — threads, shards, sizes, radii — in [min, INT_MAX].
  size_t GetCount(const std::string& name, size_t default_value,
                  size_t min = 0) {
    return static_cast<size_t>(
        GetInt(name, static_cast<int64_t>(default_value),
               static_cast<int64_t>(min), std::numeric_limits<int>::max()));
  }
  // A finite number in [lo, hi].
  double GetDouble(const std::string& name, double default_value,
                   double lo = std::numeric_limits<double>::lowest(),
                   double hi = std::numeric_limits<double>::max()) {
    return Read(Find(name), default_value, lo, hi, "a number");
  }
  // true, false, 1 or 0.
  bool GetBool(const std::string& name, bool default_value);
  // One of `words`.
  std::string GetWord(const std::string& name,
                      const std::string& default_value,
                      const std::vector<std::string>& words);
  // A comma list of numbers, each in [lo, hi]; an error names the entry.
  std::vector<double> GetDoubles(const std::string& name,
                                 const std::vector<double>& default_value,
                                 double lo, double hi);

  // Prints "<tool>: invalid --name=value (expected <expected>)" (a
  // positional's value in quotes when `name` is empty); exits 2.
  [[noreturn]] void Invalid(const std::string& name, const std::string& value,
                            const std::string& expected) const;

  // Exits 2 naming every flag and positional no getter read. Call after
  // reading every flag and before any work.
  void Finalize();

  // The text of every argument not yet read, in order, now marked read:
  // for a binary that hands the rest to another parser (bench_kernels).
  std::vector<std::string> TakeUnread();

 private:
  struct Arg {
    std::string name;  // Empty for a positional.
    std::string value;
    bool read = false;
  };

  // The last --name, marked read with every other; null when absent.
  const Arg* Find(const std::string& name);
  // The first positional not yet read, now marked read; null when none.
  const Arg* NextUnread();
  // `arg`'s value as a T in [lo, hi]; `default_value` when `arg` is null.
  template <typename T>
  T Read(const Arg* arg, T default_value, T lo, T hi, const std::string& kind);

  std::string tool_;
  std::vector<Arg> args_;
};

template <typename T>
T Flags::Read(const Arg* arg, T default_value, T lo, T hi,
              const std::string& kind) {
  T value = default_value;
  if (arg == nullptr || ReadNumber(arg->value, lo, hi, &value)) return value;
  std::ostringstream expected;
  expected << kind;
  if (hi != std::numeric_limits<T>::max()) {
    expected << " from " << lo << " to " << hi;
  } else if (lo != std::numeric_limits<T>::lowest()) {
    expected << " >= " << lo;
  }
  Invalid(arg->name, arg->value, expected.str());
}

}  // namespace warp

#endif  // WARP_COMMON_FLAGS_H_
