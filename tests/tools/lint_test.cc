// Tests for the warp_lint analyzer (src/warp/lintkit/).
//
// Three layers:
//  1. Lexer unit tests on inline sources: comments, strings, raw
//     strings, and line splices must tokenize the way the rules assume.
//  2. Fixture-corpus tests: tests/tools/lint_fixtures/ holds one
//     mini-repo per rule with a deliberate violation (plus one fully
//     clean tree). Each rule must fire on its fixture, stay silent on
//     the clean tree, and go quiet when disabled — proving every
//     finding is attributable to exactly one rule.
//  3. Self-check + CLI: the analyzer must run clean over this very
//     repository, and the warp_lint binary must honor its exit-code
//     and JSON contracts.
//
// Fixture trees are never compiled; the analyzer only lexes them. The
// real-repo scan skips any directory named lint_fixtures, so the
// deliberate violations below never pollute the repository's own run.
//
// Note on self-scanning: this file is part of the repository scan, so
// suppression-pragma syntax and banned identifiers appear only inside
// string literals, which the lexer treats as opaque.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "warp/lintkit/analyzer.h"
#include "warp/lintkit/lexer.h"

namespace warp {
namespace lintkit {
namespace {

std::string FixturePath(const std::string& tree) {
  return std::string(WARP_LINT_FIXTURES_DIR) + "/" + tree;
}

AnalyzerResult RunFixture(const std::string& tree,
                   std::vector<std::string> disabled = {}) {
  AnalyzerConfig config;
  config.root = FixturePath(tree);
  config.disabled_rules = std::move(disabled);
  return RunAnalyzer(config);
}

size_t CountRule(const AnalyzerResult& result, const std::string& rule) {
  size_t n = 0;
  for (const Finding& finding : result.findings) {
    if (finding.rule == rule) ++n;
  }
  return n;
}

// --- 1. Lexer ---------------------------------------------------------------

TEST(LexerTest, CommentsAndStringsProduceNoTokens) {
  const std::string source =
      "int a = 1;  // trailing mention of rand() and srand(1)\n"
      "/* block mention of socket(2, 1, 0) */\n"
      "const char* s = \"assert(true) mt19937\";\n";
  const LexedFile file = LexFile("src/warp/gen/x.cc", source);
  for (const Token& token : file.tokens) {
    if (token.kind != TokenKind::kIdentifier) continue;
    EXPECT_NE(token.text, "rand");
    EXPECT_NE(token.text, "srand");
    EXPECT_NE(token.text, "socket");
    EXPECT_NE(token.text, "assert");
    EXPECT_NE(token.text, "mt19937");
  }
  // The string literal itself survives as one opaque token.
  bool saw_string = false;
  for (const Token& token : file.tokens) {
    if (token.kind == TokenKind::kString) {
      saw_string = true;
      EXPECT_EQ(token.text, "assert(true) mt19937");
    }
  }
  EXPECT_TRUE(saw_string);
}

TEST(LexerTest, RawStringContentsAreOpaque) {
  const std::string source =
      "const char* r = R\"x(assert(1) )quote\" still inside )x\";\n"
      "int tail = 2;\n";
  const LexedFile file = LexFile("src/warp/gen/raw.cc", source);
  bool saw_raw = false;
  for (const Token& token : file.tokens) {
    EXPECT_NE(token.text, "assert");
    if (token.kind == TokenKind::kString &&
        token.text.find("still inside") != std::string::npos) {
      saw_raw = true;
    }
  }
  EXPECT_TRUE(saw_raw);
  // Lexing resumed correctly after the raw delimiter.
  bool saw_tail = false;
  for (const Token& token : file.tokens) {
    if (token.kind == TokenKind::kIdentifier && token.text == "tail") {
      saw_tail = true;
    }
  }
  EXPECT_TRUE(saw_tail);
}

TEST(LexerTest, LineSpliceIsTransparentInsideIdentifiers) {
  // A banned call split across a splice must still produce one token,
  // otherwise a violation could hide behind a backslash-newline.
  const std::string source = "void f() { as\\\nsert(1); }\n";
  const LexedFile file = LexFile("src/warp/core/s.cc", source);
  bool saw = false;
  for (size_t i = 0; i + 1 < file.tokens.size(); ++i) {
    if (file.tokens[i].kind == TokenKind::kIdentifier &&
        file.tokens[i].text == "assert" &&
        file.tokens[i + 1].text == "(") {
      saw = true;
      EXPECT_EQ(file.tokens[i].line, 1u);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(LexerTest, IncludesAreRecordedInOrder) {
  const std::string source =
      "#include \"warp/core/align.h\"\n"
      "#include <vector>\n"
      "#include \"warp/common/metrics.h\"\n";
  const LexedFile file = LexFile("src/warp/core/align.cc", source);
  ASSERT_EQ(file.includes.size(), 3u);
  EXPECT_EQ(file.includes[0].path, "warp/core/align.h");
  EXPECT_FALSE(file.includes[0].angled);
  EXPECT_EQ(file.includes[0].line, 1u);
  EXPECT_EQ(file.includes[1].path, "vector");
  EXPECT_TRUE(file.includes[1].angled);
  EXPECT_EQ(file.includes[2].path, "warp/common/metrics.h");
}

TEST(LexerTest, AllowPragmaParses) {
  const std::string source =
      std::string("int y = 0;  // warp-lint") +
      ": allow(raw-assert, platform-rng): both justified here\n";
  const LexedFile file = LexFile("src/warp/gen/p.cc", source);
  ASSERT_EQ(file.pragmas.size(), 1u);
  const AllowPragma& pragma = file.pragmas[0];
  EXPECT_FALSE(pragma.malformed);
  ASSERT_EQ(pragma.rules.size(), 2u);
  EXPECT_EQ(pragma.rules[0], "raw-assert");
  EXPECT_EQ(pragma.rules[1], "platform-rng");
  EXPECT_EQ(pragma.reason, "both justified here");
  EXPECT_EQ(pragma.line, 1u);
  EXPECT_FALSE(pragma.covers_next);
}

TEST(LexerTest, StandalonePragmaCoversNextLine) {
  const std::string source =
      std::string("// warp-lint") + ": allow(raw-assert): covers below\n" +
      "int z = 0;\n";
  const LexedFile file = LexFile("src/warp/gen/q.cc", source);
  ASSERT_EQ(file.pragmas.size(), 1u);
  EXPECT_TRUE(file.pragmas[0].covers_next);
}

TEST(LexerTest, MarkerWithoutAllowIsMalformed) {
  const std::string source =
      std::string("// warp-lint") + ": disable everything\n";
  const LexedFile file = LexFile("src/warp/gen/m.cc", source);
  ASSERT_EQ(file.pragmas.size(), 1u);
  EXPECT_TRUE(file.pragmas[0].malformed);
}

// --- 2. Fixture corpus ------------------------------------------------------

struct RuleFixture {
  const char* tree;
  const char* rule;
  size_t expected;  // Findings attributed to `rule`.
  size_t total;     // All findings in the tree.
};

// One mini-repo per rule. `expected == total` everywhere except the
// pragma tree, where the undisciplined pragmas coexist with the
// violation they fail to suppress.
const RuleFixture kRuleFixtures[] = {
    {"bad_raw_assert", "raw-assert", 1, 1},
    {"bad_platform_rng", "platform-rng", 2, 2},
    {"bad_chrono", "chrono-containment", 2, 2},
    {"bad_dp_engine", "dp-engine-only", 1, 1},
    {"bad_cascade", "cascade-containment", 2, 2},
    {"bad_socket", "socket-containment", 2, 2},
    {"bad_cluster_proc", "proc-containment", 3, 3},
    {"bad_serve_io", "serve-io-containment", 2, 2},
    {"bad_intrinsics", "intrinsics-containment", 1, 1},
    {"bad_include_guards", "include-guards", 3, 3},
    {"bad_layering", "module-layering", 2, 2},
    {"bad_order", "own-header-first", 1, 1},
    {"bad_counter", "obs-counter-xref", 2, 2},
    {"bad_histogram", "obs-counter-xref", 4, 4},
    {"bad_measure", "measure-coverage", 3, 3},
    {"bad_benchflag", "bench-flag-wiring", 2, 2},
    {"bad_testreg", "test-registration", 1, 1},
    {"bad_pragma", "pragma-hygiene", 5, 6},
};

TEST(LintFixtureTest, EveryRuleFiresOnItsFixture) {
  for (const RuleFixture& fixture : kRuleFixtures) {
    SCOPED_TRACE(fixture.tree);
    const AnalyzerResult result = RunFixture(fixture.tree);
    EXPECT_TRUE(result.errors.empty());
    EXPECT_EQ(CountRule(result, fixture.rule), fixture.expected);
    EXPECT_EQ(result.findings.size(), fixture.total);
  }
}

TEST(LintFixtureTest, DisablingTheRuleSilencesItsFixture) {
  for (const RuleFixture& fixture : kRuleFixtures) {
    SCOPED_TRACE(fixture.tree);
    const AnalyzerResult result = RunFixture(fixture.tree, {fixture.rule});
    EXPECT_EQ(CountRule(result, fixture.rule), 0u);
    EXPECT_EQ(result.findings.size(), fixture.total - fixture.expected);
  }
}

TEST(LintFixtureTest, EveryRuleHasAFixture) {
  // Guards the table above against rot when rules are added.
  for (const RuleStatus& rule : AllRules()) {
    bool covered = false;
    for (const RuleFixture& fixture : kRuleFixtures) {
      if (rule.id == fixture.rule) covered = true;
    }
    EXPECT_TRUE(covered) << "rule without a fixture: " << rule.id;
  }
}

TEST(LintFixtureTest, CleanTreeIsClean) {
  const AnalyzerResult result = RunFixture("clean");
  EXPECT_TRUE(result.errors.empty());
  for (const Finding& finding : result.findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
  EXPECT_EQ(result.files_scanned, 12u);
  // The clean tree carries exactly one justified suppression.
  ASSERT_EQ(result.suppressed.size(), 1u);
  EXPECT_EQ(result.suppressed[0].finding.rule, "chrono-containment");
  EXPECT_EQ(result.suppressed[0].finding.file, "src/warp/mining/timed.cc");
  EXPECT_FALSE(result.suppressed[0].reason.empty());
}

TEST(LintFixtureTest, PragmaTreeDetails) {
  const AnalyzerResult result = RunFixture("bad_pragma");
  // The reason-less pragma must NOT suppress the violation on its line.
  EXPECT_EQ(CountRule(result, "chrono-containment"), 1u);
  EXPECT_TRUE(result.suppressed.empty());
  // Unexplained, unused, malformed, unknown-rule, unknown-rule-unused.
  EXPECT_EQ(CountRule(result, "pragma-hygiene"), 5u);
}

TEST(LintFixtureTest, CounterForgeryFindsBothDirections) {
  const AnalyzerResult result = RunFixture("bad_counter");
  bool ghost = false;
  bool phantom = false;
  for (const Finding& finding : result.findings) {
    if (finding.message.find("kGhost") != std::string::npos) ghost = true;
    if (finding.message.find("kPhantom") != std::string::npos) phantom = true;
  }
  EXPECT_TRUE(ghost) << "declared-but-never-bumped counter not reported";
  EXPECT_TRUE(phantom) << "bumped-but-never-declared counter not reported";
}

TEST(LintFixtureTest, HistogramAndGaugeRegistriesCrossReferenceToo) {
  // Same rule, other registries: the histogram and gauge X-macro lists
  // in obs/histogram.h get the exact cross-reference discipline counters
  // do, in both directions each.
  const AnalyzerResult result = RunFixture("bad_histogram");
  bool ghost_hist = false;
  bool phantom_hist = false;
  bool ghost_gauge = false;
  bool phantom_gauge = false;
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.rule, "obs-counter-xref") << FormatFinding(finding);
    const std::string& m = finding.message;
    if (m.find("kGhostHist") != std::string::npos) ghost_hist = true;
    if (m.find("kPhantomHist") != std::string::npos) phantom_hist = true;
    if (m.find("kGhostGauge") != std::string::npos) ghost_gauge = true;
    if (m.find("kPhantomGauge") != std::string::npos) phantom_gauge = true;
  }
  EXPECT_TRUE(ghost_hist) << "declared-but-never-recorded histogram missed";
  EXPECT_TRUE(phantom_hist) << "recorded-but-never-declared histogram missed";
  EXPECT_TRUE(ghost_gauge) << "declared-but-never-bumped gauge missed";
  EXPECT_TRUE(phantom_gauge) << "bumped-but-never-declared gauge missed";
}

TEST(LintFixtureTest, LayeringForgeryNamesTheInvertedEdge) {
  const AnalyzerResult result = RunFixture("bad_layering");
  bool inverted = false;
  for (const Finding& finding : result.findings) {
    if (finding.file == "src/warp/common/pool.cc" &&
        finding.message.find("common") != std::string::npos &&
        finding.message.find("obs") != std::string::npos) {
      inverted = true;
    }
  }
  EXPECT_TRUE(inverted);
}

TEST(LintFixtureTest, UnknownDisabledRuleIsAnError) {
  const AnalyzerResult result = RunFixture("clean", {"no-such-rule"});
  ASSERT_FALSE(result.errors.empty());
  EXPECT_FALSE(result.clean());
}

TEST(LintFixtureTest, MissingRootIsAnError) {
  const AnalyzerResult result = RunFixture("does_not_exist");
  EXPECT_FALSE(result.clean());
  ASSERT_FALSE(result.errors.empty());
}

// --- 3. Self-check and CLI --------------------------------------------------

TEST(LintSelfCheckTest, AnalyzerRunsCleanOverThisRepository) {
  AnalyzerConfig config;
  config.root = WARP_SOURCE_ROOT_DIR;
  const AnalyzerResult result = RunAnalyzer(config);
  for (const std::string& error : result.errors) ADD_FAILURE() << error;
  for (const Finding& finding : result.findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
  EXPECT_GT(result.files_scanned, 200u);
}

TEST(LintSelfCheckTest, AtLeastTwelveRules) {
  EXPECT_GE(AllRules().size(), 12u);
}

TEST(LintSelfCheckTest, JsonDocumentHasSchemaAndVerdict) {
  AnalyzerConfig config;
  config.root = FixturePath("clean");
  const std::string json = ResultToJson(config, RunAnalyzer(config));
  EXPECT_NE(json.find("warp-lint-v1"), std::string::npos);
  EXPECT_NE(json.find("\"clean\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\""), std::string::npos);
  EXPECT_NE(json.find("chrono-containment"), std::string::npos);
}

int RunTool(const std::string& arguments) {
  const std::string command =
      std::string(WARP_LINT_PATH) + " " + arguments + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

TEST(LintCliTest, CleanRepositoryExitsZero) {
  EXPECT_EQ(RunTool("--root=" + std::string(WARP_SOURCE_ROOT_DIR)), 0);
}

TEST(LintCliTest, FindingsExitOne) {
  EXPECT_EQ(RunTool("--root=" + FixturePath("bad_chrono")), 1);
}

TEST(LintCliTest, UnknownFlagExitsTwo) {
  EXPECT_EQ(RunTool("--bogus"), 2);
}

TEST(LintCliTest, DisableSilencesFixtureViolation) {
  EXPECT_EQ(RunTool("--root=" + FixturePath("bad_chrono") +
                    " --disable=chrono-containment"),
            0);
}

TEST(LintCliTest, JsonFileIsWritten) {
  const std::string path = ::testing::TempDir() + "/warp_lint_out.json";
  std::remove(path.c_str());
  EXPECT_EQ(RunTool("--root=" + FixturePath("clean") + " --json=" + path), 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("warp-lint-v1"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lintkit
}  // namespace warp
