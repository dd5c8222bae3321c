// The per-file (token-level) conventions, first ported from the grep
// pipelines of scripts/lint.sh.
//
// Each rule inspects one lexed file at a time; because it sees tokens,
// not raw lines, a banned name inside a comment or string literal never
// fires, and a mid-line trailing comment cannot mask a real violation —
// the two standing false-positive/false-negative classes of the grep
// versions. Cross-file invariants live in project_rules.h.

#ifndef WARP_LINTKIT_TOKEN_RULES_H_
#define WARP_LINTKIT_TOKEN_RULES_H_

#include <vector>

#include "warp/lintkit/diagnostics.h"
#include "warp/lintkit/lexer.h"

namespace warp {
namespace lintkit {

struct TokenRule {
  const char* id;
  const char* summary;
  void (*run)(const LexedFile& file, std::vector<Finding>* findings);
};

// All token rules, in canonical order. Rule ids are the names used by
// --disable= and by allow() pragmas (docs/STATIC_ANALYSIS.md).
const std::vector<TokenRule>& TokenRules();

}  // namespace lintkit
}  // namespace warp

#endif  // WARP_LINTKIT_TOKEN_RULES_H_
