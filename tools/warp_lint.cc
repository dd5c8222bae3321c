// warp_lint — the repository's dependency-free static analyzer.
//
// Runs the lintkit rule set (docs/STATIC_ANALYSIS.md) over the source
// tree: the token-level convention rules plus the cross-file project
// invariants (module layering, own-header-first, counter cross-
// reference, measure coverage, bench flag wiring, test registration,
// pragma hygiene). scripts/lint.sh builds and drives this binary, so
// strict lint runs identically in CI and in the g++-only container.
//
// Usage:
//   warp_lint [--root=DIR] [--json=PATH] [--disable=rule,rule] [--quiet]
//   warp_lint --list-rules
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "warp/common/flags.h"
#include "warp/lintkit/analyzer.h"

int main(int argc, char** argv) {
  warp::Flags flags(argc, argv);
  warp::lintkit::AnalyzerConfig config;
  config.root = flags.GetString("root", config.root);
  const std::string json_path = flags.GetString("json", "");
  for (const std::string& list : flags.GetAll("disable")) {
    for (std::string& rule : warp::SplitList(list)) {
      config.disabled_rules.push_back(std::move(rule));
    }
  }
  const bool quiet = flags.GetBool("quiet", false);
  const bool list_rules = flags.GetBool("list-rules", false);
  flags.Finalize();

  if (list_rules) {
    for (const warp::lintkit::RuleStatus& rule : warp::lintkit::AllRules()) {
      std::printf("%-24s %s %s\n", rule.id.c_str(),
                  rule.cross_file ? "[cross-file]" : "[token]     ",
                  rule.summary.c_str());
    }
    return 0;
  }

  const warp::lintkit::AnalyzerResult result =
      warp::lintkit::RunAnalyzer(config);

  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "warp_lint: error: %s\n", error.c_str());
  }
  if (!quiet) {
    for (const warp::lintkit::Finding& finding : result.findings) {
      std::fprintf(stderr, "%s\n",
                   warp::lintkit::FormatFinding(finding).c_str());
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "warp_lint: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << warp::lintkit::ResultToJson(config, result);
  }

  std::fprintf(stderr,
               "warp_lint: %zu finding(s), %zu suppressed, %zu file(s) "
               "scanned\n",
               result.findings.size(), result.suppressed.size(),
               result.files_scanned);
  if (!result.errors.empty()) return 2;
  return result.findings.empty() ? 0 : 1;
}
