#include "omvlint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <unordered_set>

namespace omv::lint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

enum class TokKind {
  kIdent,      // identifiers and keywords
  kPunct,      // operators/punctuation ("::" and "->" are single tokens)
  kNumber,     // pp-numbers (kept so prev-token context checks see them)
  kDirective,  // one whole preprocessor logical line, continuations joined
};

struct Token {
  TokKind kind;
  std::string text;
  std::size_t line = 0;
};

/// A comment mentioning omvlint, either a parsed allow() or malformed.
struct SuppressComment {
  std::size_t line = 0;
  bool alone_on_line = false;  // nothing but the comment before it
  bool well_formed = false;
  std::set<std::string> rules;  // rules named in allow(...)
  std::string error;            // set when !well_formed
};

struct TokenizedFile {
  std::vector<Token> tokens;
  std::vector<SuppressComment> suppressions;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

bool known_rule(std::string_view name);

/// Parses a comment whose trimmed body starts with the "omvlint:" marker
/// (prose that merely mentions the tool is never a suppression attempt).
/// Grammar after the marker: allow(<rule>[,<rule>...]) <non-empty reason>
void parse_omvlint_comment(std::string_view body, std::size_t line,
                           bool alone_on_line,
                           std::vector<SuppressComment>& out) {
  const std::string_view trimmed = trim(body);
  constexpr std::string_view kMarker = "omvlint:";
  if (trimmed.substr(0, kMarker.size()) != kMarker) return;
  SuppressComment sc;
  sc.line = line;
  sc.alone_on_line = alone_on_line;
  std::string_view rest = trim(trimmed.substr(kMarker.size()));
  auto malformed = [&](std::string why) {
    sc.well_formed = false;
    sc.error = std::move(why);
    out.push_back(std::move(sc));
  };
  if (rest.substr(0, 5) != "allow") {
    return malformed("only 'allow(<rule>) <reason>' is a valid directive");
  }
  rest = trim(rest.substr(5));
  if (rest.empty() || rest.front() != '(') {
    return malformed("missing '(' after allow");
  }
  const auto close = rest.find(')');
  if (close == std::string_view::npos) {
    return malformed("missing ')' after allow(");
  }
  std::string_view list = rest.substr(1, close - 1);
  std::string_view reason = trim(rest.substr(close + 1));
  while (!list.empty()) {
    const auto comma = list.find(',');
    const std::string_view name =
        trim(comma == std::string_view::npos ? list : list.substr(0, comma));
    if (name.empty() || !known_rule(name)) {
      return malformed("unknown rule '" + std::string(name) +
                       "' in allow()");
    }
    sc.rules.insert(std::string(name));
    if (comma == std::string_view::npos) break;
    list = list.substr(comma + 1);
  }
  if (sc.rules.empty()) {
    return malformed("allow() must name at least one rule");
  }
  if (reason.empty()) {
    return malformed("suppression needs a reason after allow(...)");
  }
  sc.well_formed = true;
  out.push_back(std::move(sc));
}

/// Tokenizes one file: skips comments/strings, folds preprocessor logical
/// lines into single kDirective tokens, and records omvlint comments.
TokenizedFile tokenize(std::string_view src) {
  TokenizedFile out;
  std::size_t i = 0;
  std::size_t line = 1;
  bool line_has_token = false;  // a non-comment token appeared on this line
  const std::size_t n = src.size();

  auto newline = [&] {
    ++line;
    line_has_token = false;
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      parse_omvlint_comment(src.substr(start, i - start), line,
                            !line_has_token, out.suppressions);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start_line = line;
      const bool alone = !line_has_token;
      const std::size_t start = i + 2;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') newline();
        ++i;
      }
      const std::size_t end = std::min(i, n);
      i = std::min(i + 2, n);
      parse_omvlint_comment(src.substr(start, end - start), start_line,
                            alone, out.suppressions);
      continue;
    }
    // Preprocessor directive: '#' as first token of the line; consume the
    // logical line including backslash continuations.
    if (c == '#' && !line_has_token) {
      const std::size_t start_line = line;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          newline();
          i += 2;
          text += ' ';
          continue;
        }
        if (src[i] == '\n') break;
        // Strip comments inside the directive line.
        if (src[i] == '/' && i + 1 < n && src[i + 1] == '/') {
          while (i < n && src[i] != '\n') ++i;
          break;
        }
        if (src[i] == '/' && i + 1 < n && src[i + 1] == '*') {
          i += 2;
          while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
            if (src[i] == '\n') newline();
            ++i;
          }
          i = std::min(i + 2, n);
          text += ' ';
          continue;
        }
        text += src[i];
        ++i;
      }
      out.tokens.push_back({TokKind::kDirective, std::move(text),
                            start_line});
      line_has_token = true;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(' && src[j] != '\n') delim += src[j++];
      const std::string closer = ")" + delim + "\"";
      const auto end = src.find(closer, j);
      for (std::size_t k = i; k < std::min(end, n); ++k) {
        if (src[k] == '\n') newline();
      }
      i = end == std::string_view::npos ? n : end + closer.size();
      line_has_token = true;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          ++i;
        } else if (src[i] == '\n') {
          newline();  // unterminated literal: resync at the newline
          break;
        }
        ++i;
      }
      if (i < n && src[i] == quote) ++i;
      line_has_token = true;
      continue;
    }
    // Identifier.
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back(
          {TokKind::kIdent, std::string(src.substr(i, j - i)), line});
      i = j;
      line_has_token = true;
      continue;
    }
    // Number (pp-number; precise shape does not matter to any rule).
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.')) ++j;
      out.tokens.push_back(
          {TokKind::kNumber, std::string(src.substr(i, j - i)), line});
      i = j;
      line_has_token = true;
      continue;
    }
    // Punctuation; "::" and "->" matter as single tokens for context.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      out.tokens.push_back({TokKind::kPunct, "::", line});
      i += 2;
    } else if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      out.tokens.push_back({TokKind::kPunct, "->", line});
      i += 2;
    } else {
      out.tokens.push_back({TokKind::kPunct, std::string(1, c), line});
      ++i;
    }
    line_has_token = true;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path scoping helpers
// ---------------------------------------------------------------------------

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool in_stdout_scope(std::string_view p) {
  return starts_with(p, "bench/") || starts_with(p, "src/bench_suite/");
}

bool in_atomic_scope(std::string_view p) {
  if (p == "src/core/atomic_file.cpp" || p == "src/core/atomic_file.hpp") {
    return false;  // the one module allowed to touch raw file APIs
  }
  return starts_with(p, "src/cli/") || starts_with(p, "src/freqlog/");
}

bool in_entropy_scope(std::string_view p) {
  return starts_with(p, "src/sim/") || starts_with(p, "src/topo/") ||
         starts_with(p, "src/omp_model/");
}

bool in_unordered_scope(std::string_view p) {
  // Serialization / fingerprint / artifact paths: anywhere bytes that end
  // up in a cache entry, JSON artifact, trace file, or spec hash are
  // produced in iteration order.
  static const std::unordered_set<std::string_view> files = {
      "src/core/json_writer.cpp", "src/core/json_writer.hpp",
      "src/core/trace_io.cpp",    "src/core/trace_io.hpp",
      "src/core/spec_hash.cpp",   "src/core/spec_hash.hpp",
      "src/core/run_matrix.cpp",  "src/core/run_matrix.hpp",
  };
  return starts_with(p, "src/cli/") || starts_with(p, "src/scenario/") ||
         starts_with(p, "src/freqlog/") || files.count(p) != 0;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

constexpr std::string_view kStdout = "stdout-discipline";
constexpr std::string_view kAtomic = "atomic-writes";
constexpr std::string_view kEntropy = "no-ambient-entropy";
constexpr std::string_view kUnordered = "unordered-iteration";
constexpr std::string_view kIsa = "isa-guard";
constexpr std::string_view kSuppression = "suppression";

bool known_rule(std::string_view name) {
  return name == kStdout || name == kAtomic || name == kEntropy ||
         name == kUnordered || name == kIsa;
}

struct Emitter {
  std::string_view file;
  std::vector<Diagnostic>* out;
  void operator()(std::size_t line, std::string_view rule,
                  std::string message) const {
    out->push_back(
        {std::string(file), line, std::string(rule), std::move(message)});
  }
};

/// True when tokens[i] is a function-call use: next token is '(' and the
/// previous token is not a member access (so `obj.time(...)` never fires).
bool is_free_call(const std::vector<Token>& toks, std::size_t i) {
  const bool called =
      i + 1 < toks.size() && toks[i + 1].text == "(";
  const bool member =
      i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
  return called && !member;
}

void check_stdout_discipline(std::string_view path,
                             const std::vector<Token>& toks,
                             const Emitter& emit) {
  if (!in_stdout_scope(path)) return;
  static const std::unordered_set<std::string_view> banned_calls = {
      "printf", "vprintf", "puts", "putchar", "putc_unlocked"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    if (banned_calls.count(t.text) != 0 && is_free_call(toks, i)) {
      emit(t.line, kStdout,
           t.text + " writes to stdout directly; harness science output "
                    "must flow through ctx.print/ctx.emit so the cell "
                    "scheduler's capture-replay stays byte-identical");
    } else if (t.text == "cout" || t.text == "stdout") {
      emit(t.line, kStdout,
           "direct use of " + t.text +
               " in a harness path; route output through "
               "ctx.print/ctx.emit (stderr is fine for logs)");
    }
  }
}

void check_atomic_writes(std::string_view path,
                         const std::vector<Token>& toks,
                         const Emitter& emit) {
  if (!in_atomic_scope(path)) return;
  static const std::unordered_set<std::string_view> banned = {
      "ofstream", "fopen", "freopen", "fwrite"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || banned.count(t.text) == 0) continue;
    emit(t.line, kAtomic,
         t.text + " performs a raw (non-atomic) file write in a "
                  "crash-safe path; commit bytes through "
                  "core/atomic_file::atomic_write_file so named-site "
                  "torn/ENOSPC injection and concurrent readers stay "
                  "sound");
  }
}

void check_ambient_entropy(std::string_view path,
                           const std::vector<Token>& toks,
                           const Emitter& emit) {
  if (!in_entropy_scope(path)) return;
  static const std::unordered_set<std::string_view> banned_idents = {
      "random_device", "system_clock", "high_resolution_clock",
      "steady_clock",  "srand",        "drand48",
      "lrand48",       "mrand48",      "timespec_get",
      "gettimeofday"};
  static const std::unordered_set<std::string_view> banned_calls = {
      "rand", "time"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    // "clock" is core simulator vocabulary (SimTeam's simulated clocks),
    // so only the ::-qualified libc form is matched for it.
    const bool qualified_clock =
        t.text == "clock" && i > 0 && toks[i - 1].text == "::" &&
        i + 1 < toks.size() && toks[i + 1].text == "(";
    const bool hit = banned_idents.count(t.text) != 0 ||
                     (banned_calls.count(t.text) != 0 &&
                      is_free_call(toks, i)) ||
                     qualified_clock;
    if (!hit) continue;
    emit(t.line, kEntropy,
         t.text + " is ambient entropy/wall-clock in the simulator core; "
                  "all randomness must derive from run_seed "
                  "(core/rng.hpp) and clocks belong only in bench timing "
                  "and supervisor backoff");
  }
}

/// Skips a balanced template argument list starting at toks[i] == "<".
/// Returns the index one past the closing ">", or i when not a "<".
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t i) {
  if (i >= toks.size() || toks[i].text != "<") return i;
  std::size_t depth = 0;
  while (i < toks.size()) {
    const std::string& s = toks[i].text;
    if (s == "<") {
      ++depth;
    } else if (s == ">") {
      if (--depth == 0) return i + 1;
    } else if (s == ">>") {  // not produced by this tokenizer, but safe
      if (depth <= 2) return i + 1;
      depth -= 2;
    } else if (s == ";") {
      return i;  // malformed; bail out
    }
    ++i;
  }
  return i;
}

void check_unordered_iteration(std::string_view path,
                               const std::vector<Token>& toks,
                               const Emitter& emit) {
  if (!in_unordered_scope(path)) return;
  static const std::unordered_set<std::string_view> unordered_types = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Pass 1: names bound to unordered containers — direct declarations
  // (`std::unordered_map<K,V> name`), type aliases (`using T = ...
  // unordered_map ...;`) and declarations through those aliases.
  std::unordered_set<std::string> aliases;
  std::unordered_set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    if (toks[i].text == "using" && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent && toks[i + 2].text == "=") {
      for (std::size_t j = i + 3;
           j < toks.size() && toks[j].text != ";"; ++j) {
        if (unordered_types.count(toks[j].text) != 0) {
          aliases.insert(toks[i + 1].text);
          break;
        }
      }
      continue;
    }
    const bool unordered_here =
        unordered_types.count(toks[i].text) != 0 ||
        aliases.count(toks[i].text) != 0;
    if (!unordered_here) continue;
    std::size_t j = skip_template_args(toks, i + 1);
    // Skip ref/pointer/const qualifiers between type and name.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      names.insert(toks[j].text);
    }
  }

  // Pass 2: range-for statements whose range expression names one of the
  // collected identifiers.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
    std::size_t depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& s = toks[j].text;
      if (s == "(") {
        ++depth;
      } else if (s == ")") {
        if (--depth == 0) {
          close = j;
          break;
        }
      } else if (s == ":" && depth == 1 && colon == 0) {
        colon = j;
      } else if (s == ";" && depth == 1) {
        colon = 0;  // classic for, not a range-for
        break;
      }
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokKind::kIdent &&
          names.count(toks[j].text) != 0) {
        emit(toks[i].line, kUnordered,
             "range-for over unordered container '" + toks[j].text +
                 "' on a serialization/fingerprint/artifact path; "
                 "iteration order is unspecified across libstdc++ "
                 "versions — copy keys into a sorted container first");
        break;
      }
    }
  }
}

void check_isa_guard(const std::vector<Token>& toks, const Emitter& emit) {
  for (const Token& t : toks) {
    if (t.kind == TokKind::kDirective) {
      if (t.text.find("immintrin.h") != std::string::npos ||
          t.text.find("x86intrin.h") != std::string::npos) {
        emit(t.line, kIsa,
             "intrinsics header included; the simulator has one scalar "
             "implementation per query, so no reproduced number may "
             "depend on the host's instruction set");
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    const bool simd =
        starts_with(t.text, "_mm_") || starts_with(t.text, "_mm256_") ||
        starts_with(t.text, "_mm512_") || starts_with(t.text, "__m128") ||
        starts_with(t.text, "__m256") || starts_with(t.text, "__m512") ||
        starts_with(t.text, "__builtin_ia32_");
    if (simd) {
      emit(t.line, kIsa,
           "SIMD intrinsic '" + t.text +
               "'; a baseline-ISA build would fault here and results "
               "could depend on the host's instruction set");
    }
  }
}

// ---------------------------------------------------------------------------
// Suppression application + tree walking
// ---------------------------------------------------------------------------

struct FileLint {
  std::vector<Diagnostic> kept;
  std::size_t suppressions_honored = 0;
};

FileLint lint_tokens(std::string_view relpath, const TokenizedFile& tf) {
  std::vector<Diagnostic> raw;
  const Emitter emit{relpath, &raw};
  check_stdout_discipline(relpath, tf.tokens, emit);
  check_atomic_writes(relpath, tf.tokens, emit);
  check_ambient_entropy(relpath, tf.tokens, emit);
  check_unordered_iteration(relpath, tf.tokens, emit);
  check_isa_guard(tf.tokens, emit);

  FileLint out;
  for (const SuppressComment& sc : tf.suppressions) {
    if (!sc.well_formed) {
      out.kept.push_back({std::string(relpath), sc.line,
                          std::string(kSuppression),
                          "malformed omvlint comment (" + sc.error +
                              "); grammar: // omvlint: allow(<rule>) "
                              "<reason>"});
    }
  }
  for (Diagnostic& d : raw) {
    bool suppressed = false;
    for (const SuppressComment& sc : tf.suppressions) {
      if (!sc.well_formed || sc.rules.count(d.rule) == 0) continue;
      // Same-line comments cover their line; a comment alone on its line
      // covers the next line.
      if (sc.line == d.line ||
          (sc.alone_on_line && sc.line + 1 == d.line)) {
        suppressed = true;
        break;
      }
    }
    if (suppressed) {
      ++out.suppressions_honored;
    } else {
      out.kept.push_back(std::move(d));
    }
  }
  std::stable_sort(out.kept.begin(), out.kept.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return out;
}

bool lintable_extension(const std::filesystem::path& p) {
  static const std::unordered_set<std::string> exts = {
      ".cpp", ".cc", ".cxx", ".hpp", ".hh", ".hxx", ".h", ".inl"};
  return exts.count(p.extension().string()) != 0;
}

bool skip_directory(const std::string& name) {
  return name == ".git" || name == "fixtures" ||
         starts_with(name, "build") || name == "CMakeFiles" ||
         name == "third_party";
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      std::string(kStdout), std::string(kAtomic), std::string(kEntropy),
      std::string(kUnordered), std::string(kIsa)};
  return names;
}

LintResult lint_source(std::string_view relpath, std::string_view content) {
  LintResult r;
  r.files_scanned = 1;
  FileLint fl = lint_tokens(relpath, tokenize(content));
  r.diagnostics = std::move(fl.kept);
  r.suppressions_honored = fl.suppressions_honored;
  return r;
}

LintResult lint_tree(const std::filesystem::path& root) {
  LintResult r;
  std::vector<std::filesystem::path> files;
  std::filesystem::recursive_directory_iterator it(
      root, std::filesystem::directory_options::skip_permission_denied);
  for (const auto& entry : it) {
    if (entry.is_directory()) {
      if (skip_directory(entry.path().filename().string())) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (entry.is_regular_file() && lintable_extension(entry.path())) {
      files.push_back(entry.path());
    }
  }
  // Deterministic report order regardless of directory enumeration order.
  std::vector<std::pair<std::string, std::filesystem::path>> rel;
  rel.reserve(files.size());
  for (const auto& f : files) {
    rel.emplace_back(
        std::filesystem::relative(f, root).generic_string(), f);
  }
  std::sort(rel.begin(), rel.end());

  for (const auto& [relpath, full] : rel) {
    std::ifstream in(full, std::ios::binary);
    if (!in) continue;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    ++r.files_scanned;
    FileLint fl = lint_tokens(relpath, tokenize(content));
    r.suppressions_honored += fl.suppressions_honored;
    for (Diagnostic& d : fl.kept) r.diagnostics.push_back(std::move(d));
  }
  return r;
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

}  // namespace omv::lint
