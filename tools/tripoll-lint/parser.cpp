// parser.cpp -- the declaration scanner underneath tripoll-lint.
//
// Not a C++ parser: a targeted scanner that recognizes the declaration
// subset this repository uses -- namespaces, (template) structs/classes
// with data members and inline methods, enums with underlying types, free
// functions -- and records everything the checks need: member lists with
// type tokens, method body token ranges, `register_thunk` call sites,
// `wire_span<T>` / `packed_batch<T, ...>` element anchors and
// TRIPOLL_WIRE_ASSERT registrations.
// Anything it does not understand it skips with balanced-delimiter
// matching; unknown constructs degrade to "no model", never to a crash.
// The fixture suite (fixtures/) and the lint-is-clean-on-the-real-tree
// test pin the supported subset.

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint.hpp"

namespace tripoll::lint {

namespace {

class scanner {
 public:
  explicit scanner(file_model& m) : m_(m), t_(m.toks), n_(m.toks.size()) {}

  void run() {
    parse_region(0, n_ > 0 ? n_ - 1 : 0, nullptr);
    attach_annotations();
    post_scan();
  }

 private:
  file_model& m_;
  std::vector<token>& t_;
  std::size_t n_;
  std::vector<std::pair<std::size_t, std::size_t>> body_ranges_;

  [[nodiscard]] const token& tok(std::size_t i) const {
    static const token eof{token::kind::eof, "", 0, 0};
    return i < n_ ? t_[i] : eof;
  }
  [[nodiscard]] bool is(std::size_t i, const char* s) const { return tok(i).text == s; }
  [[nodiscard]] bool is_ident(std::size_t i) const {
    return tok(i).k == token::kind::ident;
  }

  /// Skip from an opening delimiter to just past its match.  EOF-safe.
  [[nodiscard]] std::size_t skip_balanced(std::size_t i, const char* open,
                                          const char* close) const {
    int depth = 0;
    while (i < n_) {
      if (is(i, open)) {
        ++depth;
      } else if (is(i, close)) {
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    return n_;
  }

  /// Skip a template argument/parameter list starting at `<`; `>>` closes
  /// two levels.  Parens and brackets inside are skipped wholesale.
  [[nodiscard]] std::size_t skip_angles(std::size_t i) const {
    int depth = 0;
    while (i < n_) {
      if (is(i, "<")) {
        ++depth;
        ++i;
      } else if (is(i, ">")) {
        if (--depth <= 0) return i + 1;
        ++i;
      } else if (is(i, ">>")) {
        depth -= 2;
        if (depth <= 0) return i + 1;
        ++i;
      } else if (is(i, "(")) {
        i = skip_balanced(i, "(", ")");
      } else if (is(i, "[")) {
        i = skip_balanced(i, "[", "]");
      } else if (is(i, "{")) {
        i = skip_balanced(i, "{", "}");
      } else {
        ++i;
      }
    }
    return n_;
  }

  /// Skip one statement: to `;` at depth 0, or to just past a `}` that
  /// closes a brace opened at depth 0 (inline function bodies).
  [[nodiscard]] std::size_t skip_statement(std::size_t i) const {
    int paren = 0, brace = 0, bracket = 0;
    while (i < n_) {
      const token& t = tok(i);
      if (t.k == token::kind::punct) {
        if (t.text == "(") ++paren;
        else if (t.text == ")") --paren;
        else if (t.text == "[") ++bracket;
        else if (t.text == "]") --bracket;
        else if (t.text == "{") ++brace;
        else if (t.text == "}") {
          --brace;
          if (brace == 0 && paren == 0 && bracket == 0) {
            // `} ;` ends an init; a bare `}` ends an inline body.
            return is(i + 1, ";") ? i + 2 : i + 1;
          }
          if (brace < 0) return i;  // stray: let the caller see it
        } else if (t.text == ";" && paren == 0 && brace == 0 && bracket == 0) {
          return i + 1;
        }
      }
      ++i;
    }
    return n_;
  }

  // --- region / statement dispatch -----------------------------------------

  /// Parse declarations in [i, end).  `cur` is the enclosing struct (null at
  /// namespace scope).
  void parse_region(std::size_t i, std::size_t end, struct_decl* cur) {
    bool pending_template = false;
    std::vector<std::string> pending_tparams;
    bool pending_nua = false;
    while (i < end && i < n_) {
      const token& t = tok(i);
      if (t.k == token::kind::punct) {
        if (t.text == ";") {
          ++i;
        } else if (t.text == "{") {
          i = skip_balanced(i, "{", "}");
        } else if (t.text == "[" && is(i + 1, "[")) {
          i = parse_attribute(i, pending_nua);
          continue;  // keep pending_* alive for the next declaration
        } else if (t.text == "}") {
          ++i;  // tolerated stray (unbalanced #if branches)
        } else {
          ++i;
        }
        if (t.text == ";" || t.text == "{" || t.text == "}") {
          pending_template = false;
          pending_tparams.clear();
          pending_nua = false;
        }
        continue;
      }
      if (t.k != token::kind::ident) {
        ++i;
        continue;
      }
      const std::string& kw = t.text;
      if (kw == "template") {
        pending_template = true;
        parse_template_params(i + 1, pending_tparams);
        i = is(i + 1, "<") ? skip_angles(i + 1) : i + 1;
        continue;
      }
      if (kw == "namespace") {
        std::size_t j = i + 1;
        while (is_ident(j) || is(j, "::")) ++j;
        if (is(j, "{")) {
          const std::size_t close = skip_balanced(j, "{", "}");
          parse_region(j + 1, close - 1, nullptr);
          i = close;
        } else {
          i = skip_statement(j);  // namespace alias
        }
      } else if (kw == "struct" || kw == "class" || kw == "union") {
        i = parse_struct(i, pending_template, pending_tparams, kw == "union");
      } else if (kw == "enum") {
        i = parse_enum(i);
      } else if (kw == "using" || kw == "typedef" || kw == "friend" ||
                 kw == "static_assert") {
        i = skip_statement(i);
      } else if ((kw == "public" || kw == "private" || kw == "protected") &&
                 is(i + 1, ":")) {
        i += 2;
        continue;  // keep pending state
      } else if (kw == "extern" || kw == "inline" || kw == "constexpr" ||
                 kw == "consteval" || kw == "constinit" || kw == "explicit" ||
                 kw == "virtual") {
        ++i;
        continue;  // specifier prefixes: fold into the declaration
      } else {
        i = parse_decl_or_function(i, cur, pending_template, pending_nua);
      }
      pending_template = false;
      pending_tparams.clear();
      pending_nua = false;
    }
  }

  [[nodiscard]] std::size_t parse_attribute(std::size_t i, bool& pending_nua) {
    // `[[ ... ]]`: scan to the closing `]]`.
    std::size_t j = i + 2;
    while (j < n_ && !(is(j, "]") && is(j + 1, "]"))) {
      if (tok(j).text == "no_unique_address") pending_nua = true;
      ++j;
    }
    return j + 2;
  }

  void parse_template_params(std::size_t i, std::vector<std::string>& names) {
    if (!is(i, "<")) return;
    const std::size_t close = skip_angles(i);
    int depth = 0;
    for (std::size_t j = i; j < close; ++j) {
      if (is(j, "<")) ++depth;
      else if (is(j, ">")) --depth;
      else if (is(j, ">>")) depth -= 2;
      else if (depth == 1 && is_ident(j) &&
               (is(j + 1, ",") || is(j + 1, "=") ||
                (is(j + 1, ">") && j + 1 == close - 1) || is(j + 1, "..."))) {
        names.push_back(tok(j).text);
      }
    }
  }

  [[nodiscard]] std::size_t parse_enum(std::size_t i) {
    std::size_t j = i + 1;  // past `enum`
    if (is(j, "class") || is(j, "struct")) ++j;
    std::string name;
    if (is_ident(j)) name = tok(j++).text;
    int size = 4;  // underlying int unless specified
    if (is(j, ":")) {
      ++j;
      std::vector<std::string> base;
      while (j < n_ && !is(j, "{") && !is(j, ";")) base.push_back(tok(j++).text);
      size = builtin_size(base);
    }
    if (!name.empty()) m_.enum_underlying[name] = size;
    if (is(j, "{")) j = skip_balanced(j, "{", "}");
    if (is(j, ";")) ++j;
    return j;
  }

  [[nodiscard]] static int builtin_size(const std::vector<std::string>& toks) {
    std::string joined;
    for (const auto& s : toks) {
      if (s == "std" || s == "::" || s == "const" || s == "constexpr") continue;
      if (!joined.empty()) joined += ' ';
      joined += s;
    }
    if (joined == "bool" || joined == "char" || joined == "signed char" ||
        joined == "unsigned char" || joined == "char8_t" || joined == "byte" ||
        joined == "int8_t" || joined == "uint8_t") {
      return 1;
    }
    if (joined == "short" || joined == "unsigned short" || joined == "char16_t" ||
        joined == "int16_t" || joined == "uint16_t") {
      return 2;
    }
    if (joined == "int" || joined == "unsigned" || joined == "unsigned int" ||
        joined == "char32_t" || joined == "wchar_t" || joined == "int32_t" ||
        joined == "uint32_t" || joined == "float") {
      return 4;
    }
    if (joined == "long" || joined == "unsigned long" || joined == "long long" ||
        joined == "unsigned long long" || joined == "int64_t" || joined == "uint64_t" ||
        joined == "size_t" || joined == "ptrdiff_t" || joined == "intptr_t" ||
        joined == "uintptr_t" || joined == "double") {
      return 8;
    }
    return 0;  // unknown
  }

  // --- structs --------------------------------------------------------------

  [[nodiscard]] std::size_t parse_struct(std::size_t i, bool is_template,
                                         const std::vector<std::string>& tparams,
                                         bool is_union) {
    std::size_t j = i + 1;
    bool nua_dummy = false;
    while (is(j, "[") && is(j + 1, "[")) j = parse_attribute(j, nua_dummy);
    struct_decl sd;
    sd.is_template = is_template;
    sd.template_params = tparams;
    sd.unanalyzable = is_union;
    sd.line = tok(i).line;
    if (is_ident(j)) {
      sd.name = tok(j).text;
      sd.line = tok(j).line;
      ++j;
      // Qualified out-of-line or namespaced name: keep the last component.
      while (is(j, "::") && is_ident(j + 1)) {
        sd.name = tok(j + 1).text;
        j += 2;
      }
    }
    if (is(j, "<")) j = skip_angles(j);  // explicit specialization arguments
    if (is(j, "final")) ++j;
    if (is(j, ";")) return j + 1;  // forward declaration
    if (is(j, ":")) {              // base-clause: skip to the body
      ++j;
      while (j < n_ && !is(j, "{")) {
        if (is(j, "<")) j = skip_angles(j);
        else ++j;
      }
    }
    if (!is(j, "{")) return skip_statement(j);  // something unexpected
    const std::size_t close = skip_balanced(j, "{", "}");
    parse_struct_body(j + 1, close - 1, sd);
    if (!sd.name.empty()) {
      for (const auto& fn : sd.methods) {
        body_ranges_.emplace_back(fn.body_begin, fn.body_end);
      }
      m_.structs.push_back(std::move(sd));
    }
    // Trailing declarators (`} instance;`) -- skip to the semicolon.
    std::size_t k = close;
    while (k < n_ && !is(k, ";")) ++k;
    return k < n_ ? k + 1 : n_;
  }

  void parse_struct_body(std::size_t i, std::size_t end, struct_decl& sd) {
    bool pending_template = false;
    bool pending_nua = false;
    bool pending_static = false;
    while (i < end && i < n_) {
      const token& t = tok(i);
      if (t.k == token::kind::punct) {
        if (t.text == "[" && is(i + 1, "[")) {
          i = parse_attribute(i, pending_nua);
          continue;
        }
        if (t.text == ";") {
          pending_template = pending_static = pending_nua = false;
        }
        if (t.text == "{") {
          i = skip_balanced(i, "{", "}");
          continue;
        }
        ++i;
        continue;
      }
      if (t.k != token::kind::ident) {
        // `~destructor()` and friends: hand to the declaration scanner.
        if (t.text == "~") {
          i = parse_member_or_method(i, end, sd, pending_static, pending_nua);
          pending_template = pending_static = pending_nua = false;
          continue;
        }
        ++i;
        continue;
      }
      const std::string& kw = t.text;
      if (kw == "template") {
        pending_template = true;
        if (is(i + 1, "<")) i = skip_angles(i + 1); else ++i;
        continue;
      }
      if (kw == "struct" || kw == "class" || kw == "union") {
        i = parse_struct(i, pending_template, {}, kw == "union");
        pending_template = false;
        continue;
      }
      if (kw == "enum") {
        i = parse_enum(i);
        continue;
      }
      if (kw == "using" || kw == "typedef" || kw == "friend" || kw == "static_assert") {
        i = skip_statement(i);
        continue;
      }
      if ((kw == "public" || kw == "private" || kw == "protected") && is(i + 1, ":")) {
        i += 2;
        continue;
      }
      if (kw == "static") {
        pending_static = true;
        ++i;
        continue;
      }
      if (kw == "inline" || kw == "constexpr" || kw == "consteval" ||
          kw == "mutable" || kw == "explicit" || kw == "virtual") {
        ++i;
        continue;
      }
      i = parse_member_or_method(i, end, sd, pending_static, pending_nua);
      pending_template = pending_static = pending_nua = false;
    }
  }

  /// Scan one declaration at struct scope: record a data member or an
  /// inline method body.  Returns the index just past the declaration.
  [[nodiscard]] std::size_t parse_member_or_method(std::size_t i, std::size_t end,
                                                   struct_decl& sd, bool is_static,
                                                   bool nua) {
    std::vector<std::string> toks;      // accumulated declaration tokens
    std::vector<std::size_t> idents;    // indices (into t_) of depth-0 idents
    // Declarators flushed at `,` for multi-declarator members (`T u, v;`).
    std::vector<std::pair<std::size_t, long long>> decls;
    std::size_t j = i;
    long long array_count = 1;
    while (j < end && j < n_) {
      const token& t = tok(j);
      if (t.k == token::kind::ident && t.text == "operator") {
        // operator()(params) or operator<op>(params).
        std::string name = "operator";
        std::size_t k = j + 1;
        if (is(k, "(") && is(k + 1, ")")) {
          name = "operator()";
          k += 2;
        } else {
          while (k < n_ && !is(k, "(")) name += tok(k++).text;
        }
        if (is(k, "(")) return finish_method(k, sd, name, tok(j).line);
        j = k;
        continue;
      }
      if (t.k == token::kind::punct) {
        if (t.text == "<") {
          j = skip_angles(j);
          toks.push_back("<...>");
          continue;
        }
        if (t.text == "(") {
          // Function if the parens are followed by body-ish tokens.
          const std::size_t close = skip_balanced(j, "(", ")") - 1;
          std::size_t a = close + 1;
          while (is(a, "const") || is(a, "noexcept") || is(a, "override") ||
                 is(a, "final") || is(a, "mutable") || is(a, "&") || is(a, "&&")) {
            if (is(a, "noexcept") && is(a + 1, "(")) a = skip_balanced(a + 1, "(", ")");
            else ++a;
          }
          std::string name = idents.empty() ? "" : tok(idents.back()).text;
          if (is(a, "{") || is(a, ":") || is(a, "->") || is(a, "requires")) {
            return finish_method(j, sd, name, tok(i).line);
          }
          if (is(a, ";") || is(a, "=")) {
            // Declaration, `= default/delete`, or a macro invocation
            // (e.g. TRIPOLL_WIRE_ASSERT) -- no member to record.
            return skip_statement(a);
          }
          // Variable with paren-init or something odd: skip the statement.
          return skip_statement(j);
        }
        if (t.text == "[") {
          // Array declarator suffix `name[N]`.
          if (tok(j + 1).k == token::kind::number) {
            try {
              array_count = std::stoll(tok(j + 1).text);
            } catch (...) {
              array_count = 1;
            }
          }
          j = skip_balanced(j, "[", "]");
          continue;
        }
        if (t.text == ",") {  // declarator separator: `T u, v;`
          if (!idents.empty()) decls.emplace_back(idents.back(), array_count);
          array_count = 1;
          ++j;
          continue;
        }
        const bool term_eq = t.text == "=";
        const bool term_brace = t.text == "{";
        const bool term_semi = t.text == ";";
        const bool term_colon = t.text == ":";
        if (term_eq || term_brace || term_semi || term_colon) {
          if (is_static) {
            // Static member: only the bitwise opt-out flag matters.
            if (!idents.empty() &&
                tok(idents.back()).text == "tripoll_force_member_serialize") {
              sd.force_flag = (term_eq && is(j + 1, "true") && is(j + 2, ";")) ? 1 : 0;
            }
            return skip_statement(j);
          }
          if (term_colon) {  // bitfield: layout not computable, flag the struct
            sd.unanalyzable = true;
            return skip_statement(j);
          }
          if (idents.empty()) return skip_statement(j);
          decls.emplace_back(idents.back(), array_count);
          // `T x = 0, y = 0;` -- scan the rest of the statement for further
          // declarators at depth 0 (`, ident` after each initializer).
          std::size_t stmt_end = j;
          if (term_eq || term_brace) {
            int paren = 0, brace = 0, bracket = 0;
            std::size_t k = j;
            while (k < n_) {
              const std::string& s = tok(k).text;
              if (s == "(") ++paren;
              else if (s == ")") --paren;
              else if (s == "[") ++bracket;
              else if (s == "]") --bracket;
              else if (s == "{") ++brace;
              else if (s == "}") --brace;
              else if (s == ";" && paren == 0 && brace == 0 && bracket == 0) break;
              else if (s == "," && paren == 0 && brace == 0 && bracket == 0 &&
                       is_ident(k + 1)) {
                const std::string& nxt = tok(k + 2).text;
                if (nxt == "=" || nxt == "{" || nxt == ";" || nxt == "," ||
                    nxt == "[") {
                  long long cnt = 1;
                  if (nxt == "[" && tok(k + 3).k == token::kind::number) {
                    try {
                      cnt = std::stoll(tok(k + 3).text);
                    } catch (...) {
                      cnt = 1;
                    }
                  }
                  decls.emplace_back(k + 1, cnt);
                  ++k;  // step past the declarator name
                }
              }
              ++k;
            }
            stmt_end = k;
          }
          // Type tokens: the raw token texts up to the first declarator name.
          std::vector<std::string> type_toks;
          for (std::size_t k = i; k < decls.front().first; ++k) {
            if (is(k, "<")) {
              const std::size_t c = skip_angles(k);
              for (std::size_t q = k; q < c; ++q) type_toks.push_back(tok(q).text);
              k = c - 1;
              continue;
            }
            type_toks.push_back(tok(k).text);
          }
          for (const auto& [name_idx, count] : decls) {
            member_decl md;
            md.name = tok(name_idx).text;
            md.line = tok(name_idx).line;
            md.col = tok(name_idx).col;
            md.no_unique_address = nua;
            md.array_count = count;
            md.type_toks = type_toks;
            sd.members.push_back(std::move(md));
          }
          if (term_eq || term_brace) {
            return is(stmt_end, ";") ? stmt_end + 1 : stmt_end;
          }
          return skip_statement(j);
        }
        ++j;
        continue;
      }
      if (t.k == token::kind::ident) idents.push_back(j);
      ++j;
    }
    return j;
  }

  /// From the opening `(` of a parameter list: record the method with its
  /// parameters and (when present) inline body range.
  [[nodiscard]] std::size_t finish_method(std::size_t paren, struct_decl& sd,
                                          const std::string& name, int line) {
    function_decl fn;
    fn.name = name;
    fn.line = line;
    const std::size_t close = skip_balanced(paren, "(", ")") - 1;
    parse_params(paren + 1, close, fn.params);
    if (name == "serialize") sd.has_serialize = true;
    // Scan past trailing qualifiers / ctor-init / trailing return to the
    // body (or to `;`/`=` for a declaration).
    std::size_t a = close + 1;
    while (a < n_) {
      if (is(a, "{")) {
        const std::size_t bend = skip_balanced(a, "{", "}");
        fn.body_begin = a + 1;
        fn.body_end = bend - 1;
        sd.methods.push_back(std::move(fn));
        return bend;
      }
      if (is(a, ";")) {
        sd.methods.push_back(std::move(fn));
        return a + 1;
      }
      if (is(a, "=")) return skip_statement(a);  // = default / = delete / = 0
      if (is(a, "(")) {
        a = skip_balanced(a, "(", ")");
        continue;
      }
      if (is(a, "<")) {
        a = skip_angles(a);
        continue;
      }
      ++a;
    }
    return n_;
  }

  void parse_params(std::size_t begin, std::size_t end, std::vector<param_decl>& out) {
    std::size_t start = begin;
    int depth = 0;
    const auto flush = [&](std::size_t stop) {
      if (stop <= start) return;
      param_decl p;
      std::vector<std::size_t> idents;
      for (std::size_t k = start; k < stop; ++k) {
        if (is(k, "<")) {
          const std::size_t c = std::min(skip_angles(k), stop);
          for (std::size_t q = k; q < c; ++q) p.type_toks.push_back(tok(q).text);
          k = c - 1;
          continue;
        }
        if (is(k, "=")) break;  // default argument
        if (is_ident(k)) idents.push_back(k);
        p.type_toks.push_back(tok(k).text);
      }
      if (!idents.empty()) {
        p.name = tok(idents.back()).text;
        p.line = tok(idents.back()).line;
        if (p.type_toks.size() > 1 && p.type_toks.back() == p.name) {
          p.type_toks.pop_back();
        } else {
          p.name.clear();  // single token: a type, not a name
        }
      }
      if (!p.type_toks.empty()) out.push_back(std::move(p));
    };
    for (std::size_t k = begin; k < end && k < n_; ++k) {
      if (is(k, "(")) k = skip_balanced(k, "(", ")") - 1;
      else if (is(k, "<")) k = skip_angles(k) - 1;
      else if (is(k, "{")) k = skip_balanced(k, "{", "}") - 1;
      else if (is(k, ",") && depth == 0) {
        flush(k);
        start = k + 1;
      }
    }
    flush(std::min(end, n_));
  }

  // --- free functions -------------------------------------------------------

  /// Namespace-scope declaration: record free-function bodies (needed to
  /// classify register_thunk call sites); skip everything else.
  [[nodiscard]] std::size_t parse_decl_or_function(std::size_t i, struct_decl* cur,
                                                   bool /*is_template*/, bool nua) {
    if (cur != nullptr) return parse_member_or_method(i, n_, *cur, false, nua);
    std::size_t j = i;
    while (j < n_) {
      const token& t = tok(j);
      if (t.k == token::kind::punct) {
        if (t.text == "<") {
          j = skip_angles(j);
          continue;
        }
        if (t.text == "(") {
          const std::size_t close = skip_balanced(j, "(", ")") - 1;
          std::size_t a = close + 1;
          while (is(a, "const") || is(a, "noexcept") || is(a, "override") ||
                 is(a, "&") || is(a, "&&")) {
            if (is(a, "noexcept") && is(a + 1, "(")) a = skip_balanced(a + 1, "(", ")");
            else ++a;
          }
          if (is(a, "{") || is(a, ":") || is(a, "->") || is(a, "requires")) {
            // Free function with a body.
            std::size_t b = a;
            while (b < n_ && !is(b, "{")) {
              if (is(b, "(")) b = skip_balanced(b, "(", ")");
              else if (is(b, "<")) b = skip_angles(b);
              else ++b;
            }
            if (b >= n_) return n_;
            const std::size_t bend = skip_balanced(b, "{", "}");
            function_decl fn;
            fn.line = tok(i).line;
            fn.body_begin = b + 1;
            fn.body_end = bend - 1;
            // Name: last identifier before the parameter list.
            for (std::size_t k = j; k-- > i;) {
              if (is_ident(k)) {
                fn.name = tok(k).text;
                break;
              }
            }
            parse_params(j + 1, close, fn.params);
            body_ranges_.emplace_back(fn.body_begin, fn.body_end);
            m_.free_functions.push_back(std::move(fn));
            return bend;
          }
          return skip_statement(j);  // declaration / macro / var(init)
        }
        if (t.text == "=" || t.text == "{" || t.text == ";") {
          return skip_statement(i == j ? i : j);
        }
        ++j;
        continue;
      }
      ++j;
      if (j - i > 4096) return skip_statement(i);  // runaway guard
    }
    return n_;
  }

  // --- annotations and global token scans ----------------------------------

  void attach_annotations() {
    for (auto& sd : m_.structs) {
      for (int l = sd.line - 2; l <= sd.line; ++l) {
        const auto it = m_.comments.find(l);
        if (it == m_.comments.end()) continue;
        if (it->second.find("tripoll-lint:") == std::string::npos) continue;
        if (it->second.find("wire-type") != std::string::npos) sd.annotated_wire = true;
        if (it->second.find("not-wire") != std::string::npos) {
          sd.annotated_not_wire = true;
        }
      }
    }
  }

  [[nodiscard]] bool in_any_body(std::size_t idx) const {
    for (const auto& [b, e] : body_ranges_) {
      if (idx >= b && idx < e) return true;
    }
    return false;
  }

  void post_scan() {
    for (std::size_t i = 0; i < n_; ++i) {
      if (!is_ident(i)) continue;
      const std::string& s = tok(i).text;
      if (s == "register_thunk" && is(i + 1, "(")) {
        // Calls only: a preceding identifier (or `>`/`*`/`&`) marks the
        // declaration `uint32_t register_thunk(...)`, not a call.
        const token& prev = tok(i - 1);
        const bool decl_like =
            i > 0 && (prev.k == token::kind::ident || prev.text == ">" ||
                      prev.text == "*" || prev.text == "&");
        if (!decl_like) {
          m_.register_calls.push_back(
              {s, i, tok(i).line, tok(i).col, in_any_body(i)});
        }
      } else if (is(i + 1, "(") &&
                 (s == "add_reduced" ||
                  (s == "add" && i > 0 && (is(i - 1, ".") || is(i - 1, "->"))))) {
        // Plan registrations; calls without a lambda argument (a container's
        // .add(x)) carry no callback body and stay out of the check.
        m_.plan_add_calls.push_back(i);
      } else if ((s == "wire_span" || s == "packed_batch") && is(i + 1, "<")) {
        // The element type is the first template argument (packed_batch's
        // second is its key form): anchor its last identifier.
        const std::size_t close = skip_angles(i + 1);
        std::string last_ident;
        int depth = 0;
        for (std::size_t k = i + 2; k + 1 < close; ++k) {
          if (is(k, "<") || is(k, "(")) {
            ++depth;
          } else if (is(k, ">") || is(k, ")")) {
            --depth;
          } else if (is(k, ">>")) {
            depth -= 2;
          } else if (depth == 0 && is(k, ",")) {
            break;
          } else if (is_ident(k)) {
            last_ident = tok(k).text;
          }
        }
        if (!last_ident.empty()) m_.wire_elems.insert(last_ident);
      } else if (s == "using" && is_ident(i + 1) && is(i + 2, "=")) {
        // Type alias: record the right-hand-side tokens for size lookup.
        std::vector<std::string> rhs;
        std::size_t k = i + 3;
        while (k < n_ && !is(k, ";")) rhs.push_back(tok(k++).text);
        if (!rhs.empty()) m_.aliases[tok(i + 1).text] = std::move(rhs);
      } else if (s == "TRIPOLL_WIRE_ASSERT" && is(i + 1, "(")) {
        const std::size_t close = skip_balanced(i + 1, "(", ")") - 1;
        std::vector<std::string> names;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (is_ident(k)) names.push_back(tok(k).text);
        }
        if (!names.empty()) {
          std::string type = names.front();
          names.erase(names.begin());
          m_.wire_asserts.emplace_back(std::move(type), std::move(names));
        }
      }
    }
  }
};

}  // namespace

file_model parse_source(std::string path, const std::string& text) {
  file_model m;
  m.path = std::move(path);
  m.toks = lex(text, m);
  scanner(m).run();
  return m;
}

file_model parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("tripoll-lint: cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_source(path, ss.str());
}

}  // namespace tripoll::lint
