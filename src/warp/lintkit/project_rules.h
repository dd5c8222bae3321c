// Cross-file project invariants — the checks no per-TU tool can do.
//
// Six rules, each verifying one whole-repo property against the actual
// source tree (docs/STATIC_ANALYSIS.md documents every one):
//
//   module-layering     the declared subsystem DAG
//                           common -> {ts, simd, obs} -> core
//                                  -> {check, gen, lintkit, mining, ucr}
//                                  -> serve
//                       (plus the declared intra-layer edges ts->simd and
//                       check->mining) matches the actual include graph,
//                       and src/ never includes tool/test/bench headers.
//   own-header-first    every src/ .cc file's first #include is its own
//                       header, so every header is proven self-contained.
//   obs-counter-xref    the WARP_OBS_COUNTER_LIST X-macro and the
//                       Counter::k... use sites cross-reference exactly:
//                       declared-but-never-bumped and bumped-but-
//                       undeclared both fail, as do duplicate names.
//   measure-coverage    every measure registered in warp/core/measure.cc
//                       is covered by the golden pin test, the bake-off
//                       bench, and the SIMD parity test (each either
//                       enumerates RegisteredMeasures() or names every
//                       measure explicitly).
//   bench-flag-wiring   every bench binary on the shared flag harness
//                       wires --json and --simd, and calls Finalize() so
//                       typos fail fast; so does every tools/ file that
//                       includes warp/common/flags.h.
//   test-registration   every tests/**/*_test.cc is registered in
//                       tests/CMakeLists.txt (no orphan suites).

#ifndef WARP_LINTKIT_PROJECT_RULES_H_
#define WARP_LINTKIT_PROJECT_RULES_H_

#include <string>
#include <vector>

#include "warp/lintkit/diagnostics.h"
#include "warp/lintkit/lexer.h"

namespace warp {
namespace lintkit {

// Everything the project rules see: the lexed tree plus the raw text of
// the non-C++ files individual rules cross-reference.
struct ProjectContext {
  const std::vector<LexedFile>* files = nullptr;
  std::string tests_cmake;  // tests/CMakeLists.txt contents ("" if absent).
};

struct ProjectRule {
  const char* id;
  const char* summary;
  void (*run)(const ProjectContext& context, std::vector<Finding>* findings);
};

// All project rules, in canonical order.
const std::vector<ProjectRule>& ProjectRules();

}  // namespace lintkit
}  // namespace warp

#endif  // WARP_LINTKIT_PROJECT_RULES_H_
