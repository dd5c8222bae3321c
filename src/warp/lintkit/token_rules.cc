#include "warp/lintkit/token_rules.h"

#include <string>
#include <string_view>

#include "warp/lintkit/rules_util.h"

namespace warp {
namespace lintkit {

namespace {

void Add(std::vector<Finding>* findings, const char* rule,
         const LexedFile& file, size_t line, size_t col,
         std::string message) {
  Finding finding;
  finding.rule = rule;
  finding.file = file.path;
  finding.line = line;
  finding.col = col;
  finding.message = std::move(message);
  findings->push_back(std::move(finding));
}

// --- raw-assert -------------------------------------------------------------
// Invariants go through WARP_CHECK/WARP_DCHECK (warp/common/assert.h);
// a raw assert() compiles out under NDEBUG and bypasses the project's
// failure reporting. static_assert and internal_assert are distinct
// identifier tokens, so they never fire here.
void RawAssertRule(const LexedFile& file, std::vector<Finding>* findings) {
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    if (IsCallOf(file.tokens, i, "assert")) {
      Add(findings, "raw-assert", file, file.tokens[i].line,
          file.tokens[i].col,
          "raw assert() — use WARP_CHECK/WARP_DCHECK (warp/common/assert.h)");
    }
  }
}

// --- platform-rng -----------------------------------------------------------
// All randomness in library code flows through warp::Rng with explicit
// seeds (CONTRIBUTING.md): platform RNGs have unspecified stream
// ordering across standard libraries, which breaks bitwise repro.
void PlatformRngRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) return;
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& token = file.tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    const bool banned_type = token.text == "mt19937" ||
                             token.text == "mt19937_64" ||
                             token.text == "random_device";
    const bool banned_call =
        (token.text == "rand" || token.text == "srand") &&
        IsCallOf(file.tokens, i, token.text);
    if (banned_type || banned_call) {
      Add(findings, "platform-rng", file, token.line, token.col,
          "platform RNG '" + token.text +
              "' in src/ — all randomness must flow through warp::Rng");
    }
  }
}

// --- chrono-containment -----------------------------------------------------
// Timing flows through warp::Stopwatch so the observability layer sees
// it; only the Stopwatch implementation and the obs/ subsystem may touch
// the clock directly.
void ChronoRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) return;
  if (StartsWith(file.path, "src/warp/common/stopwatch") ||
      StartsWith(file.path, "src/warp/obs/")) {
    return;
  }
  for (const IncludeDirective& include : file.includes) {
    if (include.path == "chrono") {
      Add(findings, "chrono-containment", file, include.line, 1,
          "<chrono> included in src/ — time through warp::Stopwatch "
          "(warp/common/stopwatch.h)");
    }
  }
  for (const Token& token : file.tokens) {
    if (token.kind == TokenKind::kIdentifier && token.text == "chrono") {
      Add(findings, "chrono-containment", file, token.line, token.col,
          "std::chrono used in src/ — time through warp::Stopwatch "
          "(warp/common/stopwatch.h)");
    }
  }
}

// --- dp-engine-only ---------------------------------------------------------
// A `std::vector<double> prev(` declaration in src/warp/core/ is the
// telltale of a hand-rolled two-row DP loop; all banded/two-row DP
// belongs in dp::TwoRowEngine (DESIGN.md "One banded-DP engine").
void DpEngineRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/warp/core/")) return;
  if (file.path == "src/warp/core/dp_engine.h") return;
  const std::vector<Token>& tokens = file.tokens;
  static constexpr std::string_view kShape[] = {"std", "::", "vector", "<",
                                                "double", ">", "prev", "("};
  constexpr size_t kLen = sizeof(kShape) / sizeof(kShape[0]);
  if (tokens.size() < kLen) return;
  for (size_t i = 0; i + kLen <= tokens.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < kLen; ++j) {
      if (tokens[i + j].text != kShape[j]) {
        match = false;
        break;
      }
    }
    if (match) {
      Add(findings, "dp-engine-only", file, tokens[i].line, tokens[i].col,
          "hand-rolled two-row DP loop in src/warp/core/ — instantiate "
          "dp::TwoRowEngine (warp/core/dp_engine.h) instead");
    }
  }
}

// --- cascade-containment ----------------------------------------------------
// The pruning cascade's five counters are bumped in one place,
// warp/core/cascade.*, which keeps candidates equal to the sum of the four
// outcomes for every caller; the registry declares them.
void CascadeRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/")) return;
  if (StartsWith(file.path, "src/warp/core/cascade.") ||
      file.path == "src/warp/common/metrics.h") {
    return;
  }
  static constexpr std::string_view kCounters[] = {
      "kCascadeCandidates", "kLbKimKills", "kLbKeoghKills",
      "kCascadeEarlyAbandons", "kCascadeFullDtw"};
  for (const Token& token : file.tokens) {
    if (token.kind != TokenKind::kIdentifier) continue;
    for (const std::string_view counter : kCounters) {
      if (token.text == counter) {
        Add(findings, "cascade-containment", file, token.line, token.col,
            "cascade counter " + token.text +
                " outside src/warp/core/cascade.* — run the candidate "
                "through warp::Cascade (warp/core/cascade.h)");
      }
    }
  }
}

// --- socket-containment -----------------------------------------------------
// The serve subsystem's entire syscall surface lives behind TcpConn /
// TcpListener (warp/serve/net.h): loopback-only binding, line-size cap,
// EINTR handling. Raw socket calls anywhere else bypass all three.
void SocketRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (StartsWith(file.path, "src/warp/serve/net.")) return;
  static constexpr std::string_view kCalls[] = {
      "socket",  "bind",       "listen",      "accept",      "accept4",
      "connect", "recv",       "send",        "sendto",      "recvfrom",
      "setsockopt", "getsockname", "shutdown"};
  for (const IncludeDirective& include : file.includes) {
    if (include.path == "sys/socket.h" || include.path == "arpa/inet.h" ||
        StartsWith(include.path, "netinet/")) {
      Add(findings, "socket-containment", file, include.line, 1,
          "socket header <" + include.path +
              "> outside src/warp/serve/net.* — go through "
              "TcpConn/TcpListener (warp/serve/net.h)");
    }
  }
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& token = file.tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    for (const std::string_view call : kCalls) {
      if (token.text == call && IsCallOf(file.tokens, i, call)) {
        Add(findings, "socket-containment", file, token.line, token.col,
            "raw socket syscall '" + token.text +
                "' outside src/warp/serve/net.* — go through "
                "TcpConn/TcpListener (warp/serve/net.h)");
      }
    }
  }
}

// --- proc-containment -------------------------------------------------------
// The cluster subsystem's process-control surface (fork/exec, signals,
// reaping) lives behind ChildProcess / SendSignal (warp/cluster/proc.h):
// stdout piping, EINTR handling, and pid bookkeeping in one place. Raw
// process syscalls anywhere else bypass all three.
void ProcRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (StartsWith(file.path, "src/warp/cluster/proc.")) return;
  static constexpr std::string_view kCalls[] = {
      "fork",  "vfork", "execv",   "execve", "execvp",
      "execl", "execlp", "waitpid", "kill"};
  for (const IncludeDirective& include : file.includes) {
    if (include.path == "sys/wait.h") {
      Add(findings, "proc-containment", file, include.line, 1,
          "process header <" + include.path +
              "> outside src/warp/cluster/proc.* — go through "
              "ChildProcess/SendSignal (warp/cluster/proc.h)");
    }
  }
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& token = file.tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    for (const std::string_view call : kCalls) {
      if (token.text == call && IsCallOf(file.tokens, i, call)) {
        Add(findings, "proc-containment", file, token.line, token.col,
            "raw process syscall '" + token.text +
                "' outside src/warp/cluster/proc.* — go through "
                "ChildProcess/SendSignal (warp/cluster/proc.h)");
      }
    }
  }
}

// --- serve-io-containment ---------------------------------------------------
// The serve subsystem's only durable-state surface is the snapshot module
// (warp/serve/snapshot.h): versioned, checksummed, refuse-don't-guess.
// File IO anywhere else in src/warp/serve/ would create on-disk state
// with none of those guarantees. stdio *formatting* (fprintf to stderr)
// is fine — only file-handle IO is confined.
void ServeIoRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (!StartsWith(file.path, "src/warp/serve/")) return;
  if (StartsWith(file.path, "src/warp/serve/snapshot.")) return;
  for (const IncludeDirective& include : file.includes) {
    if (include.path == "fstream" || include.path == "filesystem") {
      Add(findings, "serve-io-containment", file, include.line, 1,
          "<" + include.path +
              "> in src/warp/serve/ outside snapshot.* — persistence "
              "goes through warp/serve/snapshot.h");
    }
  }
  static constexpr std::string_view kCalls[] = {
      "fopen", "freopen", "fread", "fwrite", "fgets",
      "fgetc", "fscanf",  "fseek", "ftell"};
  for (size_t i = 0; i < file.tokens.size(); ++i) {
    const Token& token = file.tokens[i];
    if (token.kind != TokenKind::kIdentifier) continue;
    for (const std::string_view call : kCalls) {
      if (token.text == call && IsCallOf(file.tokens, i, call)) {
        Add(findings, "serve-io-containment", file, token.line, token.col,
            "raw file IO '" + token.text +
                "' in src/warp/serve/ outside snapshot.* — persistence "
                "goes through warp/serve/snapshot.h");
      }
    }
  }
}

// --- intrinsics-containment -------------------------------------------------
// All architecture-specific SIMD lives behind the vdouble wrapper
// (warp/simd/vdouble.h); a raw intrinsics header elsewhere bypasses the
// scalar fallback, the runtime --simd dispatch, and the determinism
// contract (docs/SIMD.md).
void IntrinsicsRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (StartsWith(file.path, "src/warp/simd/")) return;
  static constexpr std::string_view kHeaders[] = {
      "immintrin.h", "arm_neon.h", "x86intrin.h", "emmintrin.h",
      "smmintrin.h"};
  for (const IncludeDirective& include : file.includes) {
    for (const std::string_view header : kHeaders) {
      if (include.path == header) {
        Add(findings, "intrinsics-containment", file, include.line, 1,
            "raw SIMD intrinsics header <" + include.path +
                "> outside src/warp/simd/ — go through vdouble "
                "(warp/simd/vdouble.h)");
      }
    }
  }
}

// --- include-guards ---------------------------------------------------------
// Headers use project include guards derived from their path; #pragma
// once is banned (guard names double as a uniqueness check across the
// tree, and the guard grep predates every toolchain we support).
void IncludeGuardRule(const LexedFile& file, std::vector<Finding>* findings) {
  if (!IsHeaderPath(file.path)) return;
  const std::string guard = ExpectedGuard(file.path);
  bool saw_ifndef = false;
  bool saw_define = false;
  for (size_t i = 0; i + 1 < file.tokens.size(); ++i) {
    const Token& token = file.tokens[i];
    const Token& next = file.tokens[i + 1];
    if (token.kind != TokenKind::kDirective) continue;
    if (token.text == "pragma" && next.kind == TokenKind::kIdentifier &&
        next.text == "once") {
      Add(findings, "include-guards", file, token.line, token.col,
          "#pragma once — use the " + guard + " include guard");
    }
    if (next.kind != TokenKind::kIdentifier || next.text != guard) continue;
    if (token.text == "ifndef") saw_ifndef = true;
    if (token.text == "define") saw_define = true;
  }
  if (!saw_ifndef || !saw_define) {
    Add(findings, "include-guards", file, 1, 1,
        "missing or misnamed include guard (expected " + guard + ")");
  }
}

const std::vector<TokenRule> kTokenRules = {
    {"raw-assert",
     "no raw assert(): invariants go through WARP_CHECK/WARP_DCHECK",
     RawAssertRule},
    {"platform-rng",
     "no platform RNG in src/: randomness flows through warp::Rng",
     PlatformRngRule},
    {"chrono-containment",
     "no std::chrono in src/ outside common/stopwatch* and obs/",
     ChronoRule},
    {"dp-engine-only",
     "no hand-rolled two-row DP loops in src/warp/core/",
     DpEngineRule},
    {"cascade-containment",
     "cascade counters only in src/warp/core/cascade.* and the registry",
     CascadeRule},
    {"socket-containment",
     "socket syscalls and headers only in src/warp/serve/net.*",
     SocketRule},
    {"proc-containment",
     "fork/exec/kill/waitpid only in src/warp/cluster/proc.*",
     ProcRule},
    {"serve-io-containment",
     "file IO in src/warp/serve/ only in snapshot.*",
     ServeIoRule},
    {"intrinsics-containment",
     "raw SIMD intrinsics headers only in src/warp/simd/",
     IntrinsicsRule},
    {"include-guards",
     "headers use path-derived WARP_..._H_ guards, never #pragma once",
     IncludeGuardRule},
};

}  // namespace

const std::vector<TokenRule>& TokenRules() { return kTokenRules; }

}  // namespace lintkit
}  // namespace warp
