// lint.hpp -- tripoll-lint: repo-specific static checks for the wire-format
// and threading contracts.
//
// TriPoll's headline guarantee -- bit-identical triangle counts,
// volume_bytes and messages across backends, thread counts and storage
// forms -- rests on invariants the compiler never sees:
//
//   * bitwise-serialized structs must have no padding and no view members
//     (serial/serialize.hpp's `detail::bitwise` path memcpys sizeof(T));
//   * handler registration must happen during namespace-scope static
//     initialization, or handler ids desynchronize across socket ranks
//     (comm/handler_registry.hpp);
//   * wire_span/packed_batch/string_view handler arguments die with the
//     drained payload
//     and must not escape the handler scope;
//   * receiver-side handlers and plan callbacks (`.add` / `add_reduced`),
//     which fire on worker threads, must never block (docs/THREADING.md).
//
// tripoll-lint enforces five checks over the source tree.  It is a
// standalone binary driven by `compile_commands.json` (or explicit paths),
// built on a targeted C++ tokenizer + declaration scanner rather than a
// full frontend: the subset of C++ it understands is exactly the subset
// this repository uses, and the fixture suite in fixtures/ pins the
// behaviour.  The checks, their rationale, and how to add one are
// documented in docs/STATIC_ANALYSIS.md.
//
// Diagnostics follow clang-tidy's format (`file:line:col: warning: ...
// [check-name]`) and honour clang-tidy-style suppressions:
// `// NOLINT`, `// NOLINT(check-name)` and `// NOLINTNEXTLINE(...)`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace tripoll::lint {

// ---------------------------------------------------------------------------
// Diagnostics and options.
// ---------------------------------------------------------------------------

struct diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string check;    ///< e.g. "tripoll-wire-padding"
  std::string message;

  friend bool operator<(const diagnostic& a, const diagnostic& b) {
    return std::tie(a.file, a.line, a.col, a.check) <
           std::tie(b.file, b.line, b.col, b.check);
  }
};

/// The five check names, in documentation order.
[[nodiscard]] const std::vector<std::string>& all_checks();

/// Which checks run.  `spec` mirrors clang-tidy's --checks grammar
/// restricted to full names: a comma-separated list of `name` (enable) and
/// `-name` (disable) entries applied left to right, starting from
/// all-enabled when the list is empty or starts with a disable.
struct options {
  std::set<std::string> enabled = default_enabled();

  [[nodiscard]] static std::set<std::string> default_enabled();
  [[nodiscard]] static options from_spec(const std::string& spec);
  [[nodiscard]] bool is_enabled(const std::string& check) const {
    return enabled.count(check) != 0;
  }
};

// ---------------------------------------------------------------------------
// Tokens and the per-file source model.
// ---------------------------------------------------------------------------

struct token {
  enum class kind : std::uint8_t { ident, number, str, chr, punct, eof };
  kind k = kind::eof;
  std::string text;
  int line = 0;
  int col = 0;
};

struct param_decl {
  std::vector<std::string> type_toks;  ///< tokens before the parameter name
  std::string name;                    ///< empty for unnamed parameters
  int line = 0;
};

struct member_decl {
  std::vector<std::string> type_toks;
  std::string name;
  int line = 0;
  int col = 0;
  long long array_count = 1;  ///< from a `name[N]` declarator
  bool no_unique_address = false;
  bool is_bitfield = false;
};

struct function_decl {
  std::string name;  ///< identifier or "operator()"
  std::vector<param_decl> params;
  std::size_t body_begin = 0;  ///< token index just past the opening `{`
  std::size_t body_end = 0;    ///< token index of the closing `}`
  int line = 0;
};

struct struct_decl {
  std::string name;
  int line = 0;
  bool is_template = false;
  std::vector<std::string> template_params;
  std::vector<member_decl> members;
  std::vector<function_decl> methods;
  /// tripoll_force_member_serialize: -1 absent, 1 literally `true`
  /// (bitwise opt-out), 0 any other initializer (conditionally bitwise).
  int force_flag = -1;
  bool has_serialize = false;    ///< declares a serialize(Archive&) member
  bool annotated_wire = false;   ///< `// tripoll-lint: wire-type`
  bool annotated_not_wire = false;  ///< `// tripoll-lint: not-wire`
  bool unanalyzable = false;     ///< bitfields/unions: layout not computable
};

struct call_site {
  std::string name;
  std::size_t tok = 0;  ///< token index of the callee identifier
  int line = 0;
  int col = 0;
  bool in_function_body = false;
};

struct file_model {
  std::string path;
  std::vector<token> toks;
  std::vector<struct_decl> structs;           ///< includes nested structs
  std::vector<function_decl> free_functions;  ///< namespace-scope bodies
  std::vector<call_site> register_calls;      ///< register_thunk call sites
  std::vector<std::size_t> plan_add_calls;    ///< token index of `.add` / `add_reduced`
  /// X in wire_span<...X> or packed_batch<...X, key>: element types a
  /// batch puts on the wire, the last identifier of the first template
  /// argument (packed_batch serializes its metadata X through the archive,
  /// which memcpys a bitwise X).
  std::set<std::string> wire_elems;
  /// TRIPOLL_WIRE_ASSERT(T, members...) registrations: type -> member list.
  std::vector<std::pair<std::string, std::vector<std::string>>> wire_asserts;
  std::map<int, std::string> comments;        ///< line -> raw comment text
  std::vector<std::string> quoted_includes;   ///< #include "..." targets
  /// `using name = tokens;` aliases, for member type resolution.
  std::map<std::string, std::vector<std::string>> aliases;
  std::map<std::string, int> enum_underlying;  ///< enum name -> underlying size
};

// ---------------------------------------------------------------------------
// Pipeline.
// ---------------------------------------------------------------------------

/// Tokenize `text` (as if read from `path`).  Never throws on weird input;
/// unknown bytes become single-char punct tokens.
[[nodiscard]] std::vector<token> lex(const std::string& text, file_model& comments_out);

/// Parse one file into the source model.  `text` is the file contents.
[[nodiscard]] file_model parse_source(std::string path, const std::string& text);

/// Read and parse a file from disk.  Throws std::runtime_error if unreadable.
[[nodiscard]] file_model parse_file(const std::string& path);

/// Run all enabled checks over the parsed files; returns sorted diagnostics
/// (NOLINT-suppressed ones already removed).
[[nodiscard]] std::vector<diagnostic> run_checks(const std::vector<file_model>& files,
                                                 const options& opts);

/// Expand files/directories into a sorted list of *.hpp/*.h/*.cpp/*.cc
/// source paths (directories are walked recursively).
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::vector<std::string>& paths);

/// Read `<build_dir>/compile_commands.json` and return the translation
/// units under `root`, plus every project header they reach transitively
/// through quoted includes (resolved against each TU's -I dirs).  Throws
/// std::runtime_error when the database is missing or malformed.
[[nodiscard]] std::vector<std::string> sources_from_compile_commands(
    const std::string& build_dir, const std::string& root);

/// Render one diagnostic in clang-tidy's one-line format.
[[nodiscard]] std::string format_diagnostic(const diagnostic& d);

}  // namespace tripoll::lint
