#include "warp/lintkit/project_rules.h"

#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "warp/lintkit/rules_util.h"

namespace warp {
namespace lintkit {

namespace {

void Add(std::vector<Finding>* findings, const char* rule, std::string file,
         size_t line, size_t col, std::string message) {
  Finding finding;
  finding.rule = rule;
  finding.file = std::move(file);
  finding.line = line;
  finding.col = col;
  finding.message = std::move(message);
  findings->push_back(std::move(finding));
}

const LexedFile* FindFile(const ProjectContext& context,
                          std::string_view path) {
  for (const LexedFile& file : *context.files) {
    if (file.path == path) return &file;
  }
  return nullptr;
}

// --- module-layering --------------------------------------------------------

// The declared DAG. Rank R may include rank < R (and itself); edges
// within one rank are forbidden unless listed in kIntraLayerEdges.
struct LayerEntry {
  const char* subsystem;
  int rank;
};
constexpr LayerEntry kLayers[] = {
    {"common", 0},
    {"obs", 1}, {"simd", 1}, {"ts", 1},
    {"core", 2},
    {"check", 3}, {"gen", 3}, {"lintkit", 3}, {"mining", 3}, {"ucr", 3},
    {"serve", 4},
    {"cluster", 5},
};
// Declared intra-layer edges: the z-norm pass vectorizes through the
// simd wrapper, and the exactness oracle validates the 1-NN classifier.
constexpr const char* kIntraLayerEdges[][2] = {
    {"ts", "simd"},
    {"check", "mining"},
};

int RankOf(std::string_view subsystem) {
  for (const LayerEntry& entry : kLayers) {
    if (subsystem == entry.subsystem) return entry.rank;
  }
  return -1;
}

bool IsDeclaredIntraLayerEdge(std::string_view from, std::string_view to) {
  for (const auto& edge : kIntraLayerEdges) {
    if (from == edge[0] && to == edge[1]) return true;
  }
  return false;
}

void ModuleLayeringRule(const ProjectContext& context,
                        std::vector<Finding>* findings) {
  constexpr const char* kRule = "module-layering";
  constexpr const char* kSelf = "src/warp/lintkit/project_rules.cc";

  // Self-check: the declared graph must itself be a DAG. Rank edges only
  // ever point downward, so the only possible cycles run through the
  // declared intra-layer edges; reject reversed duplicates and edges
  // that cross ranks (those must come from the rank order instead).
  for (const auto& edge : kIntraLayerEdges) {
    if (RankOf(edge[0]) != RankOf(edge[1])) {
      Add(findings, kRule, kSelf, 0, 0,
          std::string("declared intra-layer edge ") + edge[0] + " -> " +
              edge[1] + " crosses ranks — express it through the rank order");
    }
    if (IsDeclaredIntraLayerEdge(edge[1], edge[0])) {
      Add(findings, kRule, kSelf, 0, 0,
          std::string("declared intra-layer edges form a cycle: ") + edge[0] +
              " <-> " + edge[1]);
    }
  }

  for (const LexedFile& file : *context.files) {
    const std::string from = SubsystemOf(file.path);
    const bool in_src = StartsWith(file.path, "src/");
    if (in_src && from.empty()) {
      Add(findings, kRule, file.path, 0, 0,
          "src/ file outside any src/warp/<subsystem>/ directory");
      continue;
    }
    if (in_src && RankOf(from) < 0) {
      Add(findings, kRule, file.path, 0, 0,
          "subsystem '" + from +
              "' is not declared in the layering DAG "
              "(src/warp/lintkit/project_rules.cc)");
      continue;
    }
    for (const IncludeDirective& include : file.includes) {
      if (include.angled) continue;  // System headers.
      const std::string to = IncludeSubsystemOf(include.path);
      if (to.empty()) {
        // A quoted include that is not project-style ("warp/...").
        // Outside src/ that is fine (test/bench/tool-local headers);
        // inside src/ it would reach above the library layer.
        if (in_src) {
          Add(findings, kRule, file.path, include.line, 1,
              "src/ file includes non-library header \"" + include.path +
                  "\" — library code includes only \"warp/...\" and system "
                  "headers");
        }
        continue;
      }
      if (!in_src) continue;  // tools/tests/bench/examples sit on top.
      if (to == from) continue;
      const int from_rank = RankOf(from);
      const int to_rank = RankOf(to);
      if (to_rank < 0) {
        Add(findings, kRule, file.path, include.line, 1,
            "include of undeclared subsystem '" + to + "' (\"" +
                include.path + "\")");
        continue;
      }
      const bool allowed =
          from_rank > to_rank || IsDeclaredIntraLayerEdge(from, to);
      if (!allowed) {
        Add(findings, kRule, file.path, include.line, 1,
            "layering violation: " + from + " (rank " +
                std::to_string(from_rank) + ") may not include " + to +
                " (rank " + std::to_string(to_rank) + ") — declared DAG: " +
                "common -> {ts, simd, obs} -> core -> {check, gen, lintkit, "
                "mining, ucr} -> serve -> cluster");
      }
    }
  }
}

// --- own-header-first -------------------------------------------------------

void OwnHeaderFirstRule(const ProjectContext& context,
                        std::vector<Finding>* findings) {
  std::set<std::string> paths;
  for (const LexedFile& file : *context.files) paths.insert(file.path);
  for (const LexedFile& file : *context.files) {
    if (!StartsWith(file.path, "src/") || !IsSourcePath(file.path)) continue;
    const size_t dot = file.path.rfind('.');
    const std::string header = file.path.substr(0, dot) + ".h";
    if (paths.count(header) == 0) continue;  // No sibling header.
    const std::string expected = header.substr(std::string_view("src/").size());
    if (file.includes.empty()) {
      Add(findings, "own-header-first", file.path, 1, 1,
          "no includes; a .cc with a sibling header must include \"" +
              expected + "\" first");
      continue;
    }
    const IncludeDirective& first = file.includes.front();
    if (first.angled || first.path != expected) {
      Add(findings, "own-header-first", file.path, first.line, 1,
          "first include must be the file's own header \"" + expected +
              "\" (found \"" + first.path +
              "\") — proves every header is self-contained");
    }
  }
}

// --- obs-counter-xref -------------------------------------------------------

constexpr const char* kMetricsHeader = "src/warp/common/metrics.h";
constexpr const char* kMetricsSource = "src/warp/common/metrics.cc";
constexpr const char* kHistogramHeader = "src/warp/obs/histogram.h";
constexpr const char* kHistogramSource = "src/warp/obs/histogram.cc";

struct DeclaredCounter {
  std::string json_name;
  size_t line = 0;
};

// One X-macro registry to cross-reference: counters, histograms, and
// gauges all follow the same discipline (an X(name, "json_name") list in
// one header, enumerators spelled Scope::kName at every use site), so
// one rule checks all three.
struct ObsRegistry {
  const char* header;    // File holding the X-macro list.
  const char* source;    // Its .cc; both are excluded from the use scan.
  const char* macro;     // The list's #define name.
  const char* scope;     // Enum name spelled at use sites.
  const char* sentinel;  // The kNum... count enumerator (not a use).
  const char* noun;      // For messages: "counter" / "histogram" / "gauge".
};

constexpr ObsRegistry kObsRegistries[] = {
    {kMetricsHeader, kMetricsSource, "WARP_OBS_COUNTER_LIST", "Counter",
     "kNumCounters", "counter"},
    {kHistogramHeader, kHistogramSource, "WARP_OBS_HISTOGRAM_LIST",
     "Histogram", "kNumHistograms", "histogram"},
    {kHistogramHeader, kHistogramSource, "WARP_OBS_GAUGE_LIST", "Gauge",
     "kNumGauges", "gauge"},
};

// Parses the X(name, "json_name") entries out of one X-macro list. The
// #define body is one spliced logical line, so all of its tokens carry
// in_directive.
std::map<std::string, DeclaredCounter> ParseXMacroList(
    const LexedFile& header, const ObsRegistry& registry,
    std::vector<Finding>* findings) {
  std::map<std::string, DeclaredCounter> declared;
  const std::vector<Token>& tokens = header.tokens;
  size_t begin = tokens.size();
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kDirective && tokens[i].text == "define" &&
        tokens[i + 1].text == registry.macro) {
      begin = i + 2;
      break;
    }
  }
  if (begin >= tokens.size()) {
    Add(findings, "obs-counter-xref", header.path, 0, 0,
        std::string(registry.macro) + " #define not found — the " +
            registry.noun + " registry anchor moved");
    return declared;
  }
  for (size_t i = begin; i + 5 < tokens.size() && tokens[i].in_directive;
       ++i) {
    // A following #define (the next registry's list) is still
    // in_directive; its leading directive token marks the end of ours.
    if (tokens[i].kind == TokenKind::kDirective) break;
    if (tokens[i].kind == TokenKind::kIdentifier && tokens[i].text == "X" &&
        tokens[i + 1].text == "(" &&
        tokens[i + 2].kind == TokenKind::kIdentifier &&
        tokens[i + 3].text == "," &&
        tokens[i + 4].kind == TokenKind::kString &&
        tokens[i + 5].text == ")") {
      const std::string& name = tokens[i + 2].text;
      const std::string& json_name = tokens[i + 4].text;
      if (declared.count(name) != 0) {
        Add(findings, "obs-counter-xref", header.path, tokens[i + 2].line,
            tokens[i + 2].col,
            std::string("duplicate ") + registry.noun + " enumerator " + name);
      }
      for (const auto& [other, info] : declared) {
        if (info.json_name == json_name) {
          Add(findings, "obs-counter-xref", header.path, tokens[i + 4].line,
              tokens[i + 4].col,
              std::string("duplicate ") + registry.noun + " json name \"" +
                  json_name + "\" (also " + other + ")");
        }
      }
      declared[name] = {json_name, tokens[i + 2].line};
    }
  }
  if (declared.empty()) {
    Add(findings, "obs-counter-xref", header.path, 0, 0,
        std::string("no X(name, \"json_name\") entries parsed from ") +
            registry.macro);
  }
  return declared;
}

// Cross-references one registry: every declared enumerator must be
// spelled somewhere in library code, every spelled enumerator must be
// declared.
void CrossReferenceRegistry(const ProjectContext& context,
                            const ObsRegistry& registry,
                            std::vector<Finding>* findings) {
  const LexedFile* header = FindFile(context, registry.header);
  if (header == nullptr) return;  // Tree without this registry.
  const std::map<std::string, DeclaredCounter> declared =
      ParseXMacroList(*header, registry, findings);
  if (declared.empty()) return;

  // Use sites: Scope::k... anywhere in library code outside the
  // registry's own definition files. WARP_COUNT / WARP_HISTOGRAM_RECORD /
  // WARP_GAUGE_ADD sites, engine wiring, and snapshot reads all spell
  // the enumerator.
  std::map<std::string, const LexedFile*> used;
  std::map<std::string, size_t> used_line;
  for (const LexedFile& file : *context.files) {
    if (!StartsWith(file.path, "src/")) continue;
    if (file.path == registry.header || file.path == registry.source) continue;
    const std::vector<Token>& tokens = file.tokens;
    for (size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (tokens[i].kind == TokenKind::kIdentifier &&
          tokens[i].text == registry.scope && tokens[i + 1].text == "::" &&
          tokens[i + 2].kind == TokenKind::kIdentifier &&
          StartsWith(tokens[i + 2].text, "k")) {
        const std::string& name = tokens[i + 2].text;
        if (name == registry.sentinel) continue;
        if (used.count(name) == 0) {
          used[name] = &file;
          used_line[name] = tokens[i + 2].line;
        }
      }
    }
  }

  for (const auto& [name, info] : declared) {
    if (used.count(name) == 0) {
      Add(findings, "obs-counter-xref", registry.header, info.line, 1,
          std::string(registry.noun) + " " + name + " (\"" + info.json_name +
              "\") is declared but never bumped anywhere in src/");
    }
  }
  for (const auto& [name, file] : used) {
    if (declared.count(name) == 0) {
      Add(findings, "obs-counter-xref", file->path, used_line[name], 1,
          std::string(registry.scope) + "::" + name +
              " is used but not declared in " + registry.macro);
    }
  }
}

void ObsCounterXrefRule(const ProjectContext& context,
                        std::vector<Finding>* findings) {
  for (const ObsRegistry& registry : kObsRegistries) {
    CrossReferenceRegistry(context, registry, findings);
  }
}

// --- measure-coverage -------------------------------------------------------

constexpr const char* kMeasureRegistry = "src/warp/core/measure.cc";

// Registry entries look like {{"name", "summary", true}, ...}.
std::map<std::string, size_t> ParseMeasureNames(const LexedFile& registry) {
  std::map<std::string, size_t> names;
  const std::vector<Token>& tokens = registry.tokens;
  for (size_t i = 0; i + 7 < tokens.size(); ++i) {
    if (tokens[i].text == "{" && tokens[i + 1].text == "{" &&
        tokens[i + 2].kind == TokenKind::kString &&
        tokens[i + 3].text == "," &&
        tokens[i + 4].kind == TokenKind::kString &&
        tokens[i + 5].text == "," &&
        tokens[i + 6].kind == TokenKind::kIdentifier &&
        (tokens[i + 6].text == "true" || tokens[i + 6].text == "false") &&
        tokens[i + 7].text == "}") {
      names.emplace(tokens[i + 2].text, tokens[i + 2].line);
    }
  }
  return names;
}

bool ContainsStringLiteral(const LexedFile& file, std::string_view text) {
  for (const Token& token : file.tokens) {
    if (token.kind == TokenKind::kString && token.text == text) return true;
  }
  return false;
}

bool ContainsIdentifier(const LexedFile& file, std::string_view text) {
  for (const Token& token : file.tokens) {
    if (token.kind == TokenKind::kIdentifier && token.text == text) {
      return true;
    }
  }
  return false;
}

void MeasureCoverageRule(const ProjectContext& context,
                         std::vector<Finding>* findings) {
  const LexedFile* registry = FindFile(context, kMeasureRegistry);
  if (registry == nullptr) return;  // Tree without the measure registry.
  const std::map<std::string, size_t> names = ParseMeasureNames(*registry);
  if (names.empty()) {
    Add(findings, "measure-coverage", kMeasureRegistry, 0, 0,
        "no {{\"name\", \"summary\", exact}} registry entries parsed — the "
        "registry anchor moved");
    return;
  }

  struct CoverageTarget {
    const char* path;
    const char* what;
    bool enumeration_suffices;
  };
  // The golden test pins one value per measure, so it must spell every
  // name; the bake-off and SIMD parity suites may instead prove they
  // enumerate the registry (RegisteredMeasures()).
  constexpr CoverageTarget kTargets[] = {
      {"tests/core/golden_measures_test.cc", "golden pin", false},
      {"bench/bench_measures_bakeoff.cc", "bake-off", true},
      {"tests/core/simd_test.cc", "SIMD parity", true},
  };
  for (const CoverageTarget& target : kTargets) {
    const LexedFile* file = FindFile(context, target.path);
    if (file == nullptr) {
      Add(findings, "measure-coverage", target.path, 0, 0,
          std::string("registry coverage target missing: every measure "
                      "needs a ") +
              target.what + " entry");
      continue;
    }
    if (target.enumeration_suffices &&
        ContainsIdentifier(*file, "RegisteredMeasures")) {
      continue;
    }
    for (const auto& [name, line] : names) {
      if (!ContainsStringLiteral(*file, name)) {
        Add(findings, "measure-coverage", file->path, 0, 0,
            "measure \"" + name + "\" (registered at " + kMeasureRegistry +
                ":" + std::to_string(line) + ") has no " + target.what +
                " coverage in this file");
      }
    }
  }
}

// --- bench-flag-wiring ------------------------------------------------------

void BenchFlagWiringRule(const ProjectContext& context,
                         std::vector<Finding>* findings) {
  for (const LexedFile& file : *context.files) {
    // A tool that reads its flags must finalize them too, so a typo fails
    // fast there as well.
    if (StartsWith(file.path, "tools/")) {
      for (const IncludeDirective& include : file.includes) {
        if (include.path == "warp/common/flags.h" &&
            !ContainsCall(file, "Finalize")) {
          Add(findings, "bench-flag-wiring", file.path, include.line, 1,
              "tool reads warp::Flags but never calls Finalize() — unknown "
              "flags would not fail fast");
        }
      }
      continue;
    }
    if (!StartsWith(file.path, "bench/") || !IsSourcePath(file.path)) {
      continue;
    }
    size_t harness_line = 0;
    for (const IncludeDirective& include : file.includes) {
      if (include.path == "harness/bench_flags.h") {
        harness_line = include.line;
        break;
      }
    }
    if (harness_line == 0) continue;  // Not on the shared flag harness.

    if (!ContainsCall(file, "JsonFlag")) {
      Add(findings, "bench-flag-wiring", file.path, harness_line, 1,
          "bench binary does not wire --json (JsonFlag)");
    }
    if (!ContainsCall(file, "SimdFlag")) {
      Add(findings, "bench-flag-wiring", file.path, harness_line, 1,
          "bench binary does not wire --simd (SimdFlag)");
    }
    if (!ContainsCall(file, "Finalize")) {
      Add(findings, "bench-flag-wiring", file.path, harness_line, 1,
          "bench binary never calls Finalize() — unknown flags would not "
          "fail fast");
    }
  }
}

// --- test-registration ------------------------------------------------------

void TestRegistrationRule(const ProjectContext& context,
                          std::vector<Finding>* findings) {
  for (const LexedFile& file : *context.files) {
    if (!StartsWith(file.path, "tests/") || !EndsWith(file.path, "_test.cc")) {
      continue;
    }
    const std::string rel =
        file.path.substr(std::string_view("tests/").size());
    if (context.tests_cmake.find(rel) == std::string::npos) {
      Add(findings, "test-registration", file.path, 1, 1,
          "test file is not registered in tests/CMakeLists.txt — the suite "
          "would silently never run");
    }
  }
}

const std::vector<ProjectRule> kProjectRules = {
    {"module-layering",
     "the actual include graph matches the declared subsystem DAG",
     ModuleLayeringRule},
    {"own-header-first",
     "every src/ .cc includes its own header first",
     OwnHeaderFirstRule},
    {"obs-counter-xref",
     "obs registries (counters, histograms, gauges) and their enumerator "
     "use sites cross-reference exactly",
     ObsCounterXrefRule},
    {"measure-coverage",
     "every registered measure is covered by golden, bake-off, and SIMD "
     "parity suites",
     MeasureCoverageRule},
    {"bench-flag-wiring",
     "every bench on the shared harness wires --json/--simd and finalizes "
     "flags; every tool on warp::Flags finalizes them",
     BenchFlagWiringRule},
    {"test-registration",
     "every tests/**/*_test.cc is registered in tests/CMakeLists.txt",
     TestRegistrationRule},
};

}  // namespace

const std::vector<ProjectRule>& ProjectRules() { return kProjectRules; }

}  // namespace lintkit
}  // namespace warp
