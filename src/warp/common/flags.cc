#include "warp/common/flags.h"

#include <cstdio>
#include <cstdlib>

namespace warp {

std::vector<std::string> SplitList(std::string_view text) {
  std::vector<std::string> items;
  if (text.empty()) return items;
  while (true) {
    const size_t comma = text.find(',');
    items.emplace_back(text.substr(0, comma));
    if (comma == text.npos) return items;
    text.remove_prefix(comma + 1);
  }
}

Flags::Flags(int argc, char** argv) {
  const std::string_view argv0 = argc > 0 ? argv[0] : "";
  tool_ = argv0.substr(argv0.rfind('/') + 1);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.size() < 3 || arg.substr(0, 2) != "--" || eq == 2) {
      args_.push_back({"", std::string(arg)});
    } else if (eq == std::string_view::npos) {
      args_.push_back({std::string(arg.substr(2)), "true"});
    } else {
      args_.push_back({std::string(arg.substr(2, eq - 2)),
                       std::string(arg.substr(eq + 1))});
    }
  }
}

const Flags::Arg* Flags::Find(const std::string& name) {
  const Arg* last = nullptr;
  for (Arg& arg : args_) {
    if (arg.name.empty() || arg.name != name) continue;
    arg.read = true;
    last = &arg;
  }
  return last;
}

const Flags::Arg* Flags::NextUnread() {
  for (Arg& arg : args_) {
    if (!arg.name.empty() || arg.read) continue;
    arg.read = true;
    return &arg;
  }
  return nullptr;
}

std::string Flags::NextPositional() {
  const Arg* arg = NextUnread();
  return arg == nullptr ? "" : arg->value;
}

std::vector<std::string> Flags::Positionals() {
  std::vector<std::string> values;
  while (const Arg* arg = NextUnread()) values.push_back(arg->value);
  return values;
}

int64_t Flags::PositionalInt(const std::string& what, int64_t default_value,
                             int64_t min, int64_t max) {
  return Read(NextUnread(), default_value, min, max, what + ", an integer");
}

std::vector<std::string> Flags::GetAll(const std::string& name) {
  Find(name);
  std::vector<std::string> values;
  for (const Arg& arg : args_) {
    if (arg.name == name) values.push_back(arg.value);
  }
  return values;
}

bool Flags::GetBool(const std::string& name, bool default_value) {
  const Arg* arg = Find(name);
  if (arg == nullptr) return default_value;
  if (arg->value == "true" || arg->value == "1") return true;
  if (arg->value == "false" || arg->value == "0") return false;
  Invalid(name, arg->value, "true, false, 1 or 0");
}

std::string Flags::GetWord(const std::string& name,
                           const std::string& default_value,
                           const std::vector<std::string>& words) {
  const Arg* arg = Find(name);
  if (arg == nullptr) return default_value;
  std::string expected;
  for (const std::string& word : words) {
    if (arg->value == word) return word;
    expected += (expected.empty() ? "" : " | ") + word;
  }
  Invalid(name, arg->value, expected);
}

std::vector<double> Flags::GetDoubles(const std::string& name,
                                      const std::vector<double>& default_value,
                                      double lo, double hi) {
  const Arg* arg = Find(name);
  if (arg == nullptr) return default_value;
  std::vector<double> values;
  for (const std::string& item : SplitList(arg->value)) {
    const Arg entry{name, item};
    values.push_back(Read(&entry, 0.0, lo, hi, "a number"));
  }
  return values;
}

void Flags::Invalid(const std::string& name, const std::string& value,
                    const std::string& expected) const {
  const std::string text =
      name.empty() ? "'" + value + "'" : "--" + name + "=" + value;
  std::fprintf(stderr, "%s: invalid %s (expected %s)\n", tool_.c_str(),
               text.c_str(), expected.c_str());
  std::exit(2);
}

void Flags::Finalize() {
  bool ok = true;
  for (const Arg& arg : args_) {
    if (arg.read) continue;
    ok = false;
    std::fprintf(stderr,
                 arg.name.empty() ? "%s: unexpected argument '%s'\n"
                                  : "%s: unknown flag --%s\n",
                 tool_.c_str(),
                 (arg.name.empty() ? arg.value : arg.name).c_str());
  }
  if (!ok) std::exit(2);
}

std::vector<std::string> Flags::TakeUnread() {
  std::vector<std::string> rest;
  for (Arg& arg : args_) {
    if (arg.read) continue;
    arg.read = true;
    rest.push_back(arg.name.empty() ? arg.value
                                    : "--" + arg.name + "=" + arg.value);
  }
  return rest;
}

}  // namespace warp
