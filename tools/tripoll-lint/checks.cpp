// checks.cpp -- the five tripoll-lint checks.
//
// Checks 1-2 reason about "wire types": structs that reach serialize.hpp's
// bitwise path.  Lacking a real frontend, wire types are anchored
// syntactically -- a struct is a wire type when any scanned file registers
// it with TRIPOLL_WIRE_ASSERT, names it as a wire_span or packed_batch
// element, or
// annotates it `// tripoll-lint: wire-type`; `// tripoll-lint: not-wire`
// and a literal-`true` tripoll_force_member_serialize flag opt a struct
// out.  Checks 3-5 are scoped by the repo's structural conventions:
// register_thunk call sites, `*_handler` functor operator() bodies, and
// lambda callbacks passed to `.add` / `add_reduced`.
// docs/STATIC_ANALYSIS.md documents each check; fixtures/ pins the exact
// diagnostics.

#include <algorithm>
#include <optional>
#include <sstream>

#include "lint.hpp"

namespace tripoll::lint {

namespace {

constexpr const char* kWirePadding = "tripoll-wire-padding";
constexpr const char* kViewMember = "tripoll-bitwise-view-member";
constexpr const char* kStaticInit = "tripoll-handler-static-init";
constexpr const char* kViewEscape = "tripoll-view-escape";
constexpr const char* kCallbackBlocking = "tripoll-callback-blocking";

// ---------------------------------------------------------------------------
// Cross-file context: name registries merged over every scanned file.
// ---------------------------------------------------------------------------

struct global_ctx {
  /// struct name -> (declaration, owning file).  Last definition wins.
  std::map<std::string, std::pair<const struct_decl*, const file_model*>> structs;
  std::map<std::string, std::vector<std::string>> aliases;
  std::map<std::string, int> enums;
  std::set<std::string> wire_types;  ///< anchored wire type names
};

/// Last identifier before a `<` (or overall) in a token sequence: the type
/// name `wedge_candidate` in `core::detail::wedge_candidate<EdgeMeta>`.
std::string base_type_name(const std::vector<std::string>& toks) {
  std::string last;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i] == "<") break;
    if (!toks[i].empty() &&
        (std::isalpha(static_cast<unsigned char>(toks[i][0])) || toks[i][0] == '_')) {
      last = toks[i];
    }
  }
  return last;
}

global_ctx build_ctx(const std::vector<file_model>& files) {
  global_ctx g;
  for (const auto& f : files) {
    for (const auto& s : f.structs) g.structs[s.name] = {&s, &f};
    for (const auto& [k, v] : f.aliases) g.aliases[k] = v;
    for (const auto& [k, v] : f.enum_underlying) g.enums[k] = v;
  }
  // Anchor wire types, then expand one level of aliases so that
  // `packed_batch<meta_alias>` anchors the struct `meta_alias` names.
  std::set<std::string> anchors;
  for (const auto& f : files) {
    for (const auto& [type, members] : f.wire_asserts) anchors.insert(type);
    for (const auto& e : f.wire_elems) anchors.insert(e);
    for (const auto& s : f.structs) {
      if (s.annotated_wire) anchors.insert(s.name);
    }
  }
  for (const auto& a : anchors) {
    g.wire_types.insert(a);
    const auto it = g.aliases.find(a);
    if (it != g.aliases.end()) {
      const std::string base = base_type_name(it->second);
      if (!base.empty()) g.wire_types.insert(base);
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Layout engine (Itanium-style) for tripoll-wire-padding.
// ---------------------------------------------------------------------------

struct layout {
  std::size_t size = 0;
  std::size_t align = 1;
  bool empty = false;
};

std::optional<layout> builtin_layout(const std::vector<std::string>& idents) {
  std::string joined;
  for (const auto& s : idents) {
    if (!joined.empty()) joined += ' ';
    joined += s;
  }
  static const std::map<std::string, std::size_t> kSizes = {
      {"bool", 1},          {"char", 1},
      {"signed char", 1},   {"unsigned char", 1},
      {"char8_t", 1},       {"byte", 1},
      {"int8_t", 1},        {"uint8_t", 1},
      {"short", 2},         {"unsigned short", 2},
      {"short int", 2},     {"char16_t", 2},
      {"int16_t", 2},       {"uint16_t", 2},
      {"int", 4},           {"unsigned", 4},
      {"unsigned int", 4},  {"char32_t", 4},
      {"wchar_t", 4},       {"int32_t", 4},
      {"uint32_t", 4},      {"float", 4},
      {"long", 8},          {"unsigned long", 8},
      {"long int", 8},      {"long long", 8},
      {"unsigned long long", 8},
      {"long long int", 8}, {"int64_t", 8},
      {"uint64_t", 8},      {"size_t", 8},
      {"ptrdiff_t", 8},     {"intptr_t", 8},
      {"uintptr_t", 8},     {"double", 8},
  };
  const auto it = kSizes.find(joined);
  if (it == kSizes.end()) return std::nullopt;
  return layout{it->second, it->second, false};
}

std::optional<layout> resolve_struct_layout(const struct_decl& sd, const global_ctx& g,
                                            std::set<std::string>& visiting);

/// Resolve the size/alignment of a member type from its tokens.  Returns
/// nullopt for anything outside the supported subset (the caller then skips
/// the whole struct -- no guess, no false positive).
std::optional<layout> resolve_type(const std::vector<std::string>& toks,
                                   const global_ctx& g,
                                   std::set<std::string>& visiting) {
  // Pointers / references first: 8-byte scalars regardless of pointee.
  for (const auto& t : toks) {
    if (t == "*" || t == "&" || t == "&&") return layout{8, 8, false};
  }
  // Strip qualifiers and `ns::` prefixes down to the core ident sequence.
  std::vector<std::string> core;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i];
    if (t == "const" || t == "volatile" || t == "struct" || t == "class" ||
        t == "typename" || t == "mutable") {
      continue;
    }
    if (t == "::") continue;
    if (i + 1 < toks.size() && toks[i + 1] == "::") continue;  // namespace prefix
    core.push_back(t);
  }
  if (core.empty()) return std::nullopt;
  // std::array<T, N>: element layout times count.
  if (core.front() == "array" && core.size() > 1 && core[1] == "<") {
    int depth = 0;
    std::vector<std::string> elem;
    long long count = -1;
    for (std::size_t i = 1; i < core.size(); ++i) {
      if (core[i] == "<") {
        if (++depth == 1) continue;
      } else if (core[i] == ">") {
        if (--depth == 0) break;
      } else if (core[i] == ">>") {
        depth -= 2;
        if (depth <= 0) break;
      } else if (core[i] == "," && depth == 1) {
        count = -2;  // switch to the count part
        continue;
      }
      if (count == -1) {
        elem.push_back(core[i]);
      } else if (count == -2) {
        try {
          count = std::stoll(core[i]);
        } catch (...) {
          return std::nullopt;
        }
      }
    }
    if (count <= 0) return std::nullopt;
    const auto el = resolve_type(elem, g, visiting);
    if (!el || el->empty) return std::nullopt;
    return layout{el->size * static_cast<std::size_t>(count), el->align, false};
  }
  if (const auto b = builtin_layout(core)) return b;
  if (core.size() == 1) {
    const std::string& name = core.front();
    if (const auto a = g.aliases.find(name); a != g.aliases.end()) {
      if (visiting.count("alias:" + name) != 0) return std::nullopt;
      visiting.insert("alias:" + name);
      auto r = resolve_type(a->second, g, visiting);
      visiting.erase("alias:" + name);
      return r;
    }
    if (const auto e = g.enums.find(name); e != g.enums.end()) {
      if (e->second == 0) return std::nullopt;
      const auto sz = static_cast<std::size_t>(e->second);
      return layout{sz, sz, false};
    }
    if (const auto s = g.structs.find(name); s != g.structs.end()) {
      return resolve_struct_layout(*s->second.first, g, visiting);
    }
  }
  return std::nullopt;
}

std::optional<layout> resolve_struct_layout(const struct_decl& sd, const global_ctx& g,
                                            std::set<std::string>& visiting) {
  if (sd.is_template || sd.unanalyzable) return std::nullopt;
  if (visiting.count(sd.name) != 0) return std::nullopt;  // recursive type
  visiting.insert(sd.name);
  std::size_t off = 0;
  std::size_t max_align = 1;
  bool any = false;
  for (const auto& m : sd.members) {
    const auto l = resolve_type(m.type_toks, g, visiting);
    if (!l) {
      visiting.erase(sd.name);
      return std::nullopt;
    }
    if (l->empty && m.no_unique_address) continue;  // occupies no storage
    const std::size_t sz = (l->empty ? 1 : l->size) *
                           static_cast<std::size_t>(std::max<long long>(m.array_count, 1));
    const std::size_t al = l->empty ? 1 : l->align;
    off = (off + al - 1) / al * al;
    off += sz;
    max_align = std::max(max_align, al);
    any = true;
  }
  visiting.erase(sd.name);
  if (!any) return layout{1, 1, true};  // empty struct
  const std::size_t size = (off + max_align - 1) / max_align * max_align;
  return layout{size, max_align, false};
}

/// Wire ("packed") size: the sum of member sizes, mirroring
/// serial::packed_size_of -- empty members count zero.
std::optional<std::size_t> packed_size(const struct_decl& sd, const global_ctx& g) {
  std::size_t total = 0;
  for (const auto& m : sd.members) {
    std::set<std::string> visiting{sd.name};
    const auto l = resolve_type(m.type_toks, g, visiting);
    if (!l) return std::nullopt;
    if (!l->empty) {
      total += l->size * static_cast<std::size_t>(std::max<long long>(m.array_count, 1));
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Check 1: tripoll-wire-padding.
// ---------------------------------------------------------------------------

/// A struct participates in checks 1-2 when it is anchored as a wire type
/// and has not opted out of the bitwise path.
bool is_checked_wire_struct(const struct_decl& sd, const global_ctx& g) {
  if (sd.name.empty() || sd.annotated_not_wire) return false;
  if (sd.force_flag != -1) return false;  // opt-out declared (or conditional)
  return g.wire_types.count(sd.name) != 0;
}

void check_wire_padding(const std::vector<file_model>& files, const global_ctx& g,
                        std::vector<diagnostic>& out) {
  for (const auto& f : files) {
    for (const auto& sd : f.structs) {
      if (!is_checked_wire_struct(sd, g)) continue;
      std::set<std::string> visiting;
      const auto l = resolve_struct_layout(sd, g, visiting);
      const auto packed = packed_size(sd, g);
      if (!l || !packed || l->empty) continue;  // outside the analyzable subset
      if (l->size > *packed) {
        std::ostringstream msg;
        msg << "bitwise wire struct '" << sd.name << "' has " << (l->size - *packed)
            << " byte(s) of padding (sizeof " << l->size << ", member bytes "
            << *packed << "); indeterminate bytes reach the wire through the "
            << "bitwise serialize path -- reorder members or add explicit "
            << "padding fields, and pin the layout with TRIPOLL_WIRE_ASSERT";
        out.push_back({f.path, sd.line, 1, kWirePadding, msg.str()});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 2: tripoll-bitwise-view-member.
// ---------------------------------------------------------------------------

bool is_view_type(const std::vector<std::string>& toks) {
  for (const auto& t : toks) {
    if (t == "*" || t == "&" || t == "&&") return true;
    if (t == "string_view" || t == "wire_span" || t == "packed_batch" ||
        t == "span" || t == "unique_ptr" || t == "shared_ptr" || t == "observer_ptr") {
      return true;
    }
  }
  return false;
}

void check_view_member(const std::vector<file_model>& files, const global_ctx& g,
                       std::vector<diagnostic>& out) {
  for (const auto& f : files) {
    for (const auto& sd : f.structs) {
      // Unlike the padding check, templates are fair game here: a view
      // member is wrong for every instantiation.
      if (!is_checked_wire_struct(sd, g)) continue;
      for (const auto& m : sd.members) {
        if (!is_view_type(m.type_toks)) continue;
        std::ostringstream msg;
        msg << "member '" << m.name << "' of bitwise wire struct '" << sd.name
            << "' is a view/pointer type; the bitwise serialize path would "
            << "memcpy the pointer, not the bytes it refers to -- declare "
            << "'static constexpr bool tripoll_force_member_serialize = true;' "
            << "to route the struct through the member-wise archive path";
        out.push_back({f.path, m.line, m.col, kViewMember, msg.str()});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: tripoll-handler-static-init.
// ---------------------------------------------------------------------------

void check_handler_static_init(const std::vector<file_model>& files,
                               std::vector<diagnostic>& out) {
  for (const auto& f : files) {
    for (const auto& c : f.register_calls) {
      if (!c.in_function_body) continue;
      out.push_back(
          {f.path, c.line, c.col, kStaticInit,
           "register_thunk called inside a function body; handler ids are "
           "positional and must be assigned during namespace-scope static "
           "initialization so every socket rank derives the same table "
           "(see comm/handler_registry.hpp)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Check 4: tripoll-view-escape.
// ---------------------------------------------------------------------------

/// View-ish tokens for handler parameters.  A received packed_batch<T>
/// views its encoded entries, and wire_type_t maps std::string to
/// string_view -- both point into the drained payload.
bool toks_contain_view(const std::vector<std::string>& toks, const global_ctx& g,
                       std::set<std::string>& seen) {
  for (const auto& t : toks) {
    if (t == "wire_span" || t == "string_view" || t == "span" ||
        t == "packed_batch" || t == "wire_type_t") {
      return true;
    }
  }
  for (const auto& t : toks) {
    const auto it = g.aliases.find(t);
    if (it != g.aliases.end() && seen.insert(t).second &&
        toks_contain_view(it->second, g, seen)) {
      return true;
    }
  }
  return false;
}

bool is_view_param(const param_decl& p, const global_ctx& g) {
  std::set<std::string> seen;
  return toks_contain_view(p.type_toks, g, seen);
}

/// Names of locals initialized from share_current_payload(): capturing one
/// of these alongside a view legitimizes the escape (the payload keepalive
/// idiom from docs/THREADING.md).
std::set<std::string> escort_names(const std::vector<token>& toks, std::size_t begin,
                                   std::size_t end) {
  std::set<std::string> escorts;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].text != "share_current_payload") continue;
    for (std::size_t back = i; back > begin && i - back < 8; --back) {
      if (toks[back].text == "=") {
        if (toks[back - 1].k == token::kind::ident) {
          escorts.insert(toks[back - 1].text);
        }
        break;
      }
    }
  }
  return escorts;
}

void scan_view_escapes(const file_model& f, const function_decl& fn,
                       const global_ctx& g, std::vector<diagnostic>& out) {
  std::vector<std::string> views;
  for (const auto& p : fn.params) {
    if (is_view_param(p, g) && !p.name.empty()) views.push_back(p.name);
  }
  if (views.empty()) return;
  const auto& t = f.toks;
  const std::size_t b = fn.body_begin;
  const std::size_t e = std::min(fn.body_end, t.size());
  const std::set<std::string> escorts = escort_names(t, b, e);
  const auto is_view = [&](const std::string& s) {
    return std::find(views.begin(), views.end(), s) != views.end();
  };
  for (std::size_t i = b; i < e; ++i) {
    // Lambda capture lists.
    if (t[i].text == "[" && t[i + 1].text != "[") {
      const token& prev = t[i - 1];
      const bool subscript = prev.k == token::kind::ident ||
                             prev.k == token::kind::number || prev.text == "]" ||
                             prev.text == ")";
      if (subscript) continue;
      std::size_t close = i + 1;
      int depth = 1;
      while (close < e && depth > 0) {
        if (t[close].text == "[") ++depth;
        if (t[close].text == "]") --depth;
        ++close;
      }
      bool has_escort = false;
      std::vector<std::pair<std::string, int>> captured_views;
      for (std::size_t k = i + 1; k + 1 < close; ++k) {
        if (t[k].k != token::kind::ident) continue;
        if (escorts.count(t[k].text) != 0) has_escort = true;
        if (is_view(t[k].text)) captured_views.emplace_back(t[k].text, t[k].line);
      }
      if (!has_escort) {
        for (const auto& [name, line] : captured_views) {
          std::ostringstream msg;
          msg << "handler view argument '" << name << "' is captured by a "
              << "lambda without a payload keepalive; the span dangles once "
              << "the receive payload drains -- capture a "
              << "share_current_payload() handle alongside it or copy the "
              << "bytes before deferring (docs/THREADING.md)";
          out.push_back({f.path, line, t[i].col, kViewEscape, msg.str()});
        }
      }
      i = close - 1;
      continue;
    }
    if (t[i].k != token::kind::ident || !is_view(t[i].text)) continue;
    const std::string& name = t[i].text;
    // Member store: `this->x = sv` / `x_ = sv`.
    if (i >= 2 && t[i - 1].text == "=") {
      const token& lhs = t[i - 2];
      const bool member_lhs =
          (lhs.k == token::kind::ident && !lhs.text.empty() && lhs.text.back() == '_') ||
          (i >= 4 && t[i - 3].text == "->" && t[i - 4].text == "this");
      if (member_lhs && (t[i + 1].text == ";" || t[i + 1].text == ".")) {
        std::ostringstream msg;
        msg << "handler view argument '" << name << "' is stored in a member; "
            << "it points into the receive payload, which is freed after "
            << "the handler returns -- copy the bytes instead "
            << "(docs/THREADING.md)";
        out.push_back({f.path, t[i].line, t[i].col, kViewEscape, msg.str()});
        continue;
      }
    }
    // Member-container store: `sink_.push_back(sv)` / `this->sink.insert(sv)`.
    if (t[i - 1].text == "(" &&
        (t[i + 1].text == ")" || t[i + 1].text == ",") && i >= 4) {
      const std::string& callee = t[i - 2].text;
      if (callee == "push_back" || callee == "emplace_back" || callee == "insert" ||
          callee == "assign" || callee == "emplace") {
        const token& obj = t[i - 4];
        const bool member_obj =
            (obj.k == token::kind::ident && !obj.text.empty() &&
             obj.text.back() == '_') ||
            (i >= 6 && t[i - 5].text == "->" && t[i - 6].text == "this");
        if ((t[i - 3].text == "." || t[i - 3].text == "->") && member_obj) {
          std::ostringstream msg;
          msg << "handler view argument '" << name << "' is stored in a member "
              << "container; it points into the receive payload, which is "
              << "freed after the handler returns -- copy the bytes instead "
              << "(docs/THREADING.md)";
          out.push_back({f.path, t[i].line, t[i].col, kViewEscape, msg.str()});
        }
      }
    }
  }
}

void check_view_escape(const std::vector<file_model>& files, const global_ctx& g,
                       std::vector<diagnostic>& out) {
  for (const auto& f : files) {
    for (const auto& sd : f.structs) {
      if (sd.name.size() < 8 || sd.name.substr(sd.name.size() - 8) != "_handler") {
        continue;
      }
      for (const auto& fn : sd.methods) {
        if (fn.name == "operator()" && fn.body_end > fn.body_begin) {
          scan_view_escapes(f, fn, g, out);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 5: tripoll-callback-blocking.
// ---------------------------------------------------------------------------

void scan_blocking(const file_model& f, std::size_t begin, std::size_t end,
                   const std::string& ctx, std::vector<diagnostic>& out) {
  static const std::set<std::string> kBlockingMember = {
      "barrier",    "all_reduce",     "all_reduce_sum", "all_reduce_max",
      "all_reduce_min", "all_gather", "broadcast",      "global_stats",
      "lock",       "sleep_for",      "sleep_until",    "wait",
      "wait_for",   "wait_until",     "join"};
  static const std::set<std::string> kBlockingType = {
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
      "ifstream",   "ofstream",    "fstream",     "condition_variable"};
  static const std::set<std::string> kBlockingFree = {
      "fopen", "fread", "fwrite", "fclose", "getline",
      "usleep", "nanosleep", "sleep", "system"};
  const auto& t = f.toks;
  const std::size_t e = std::min(end, t.size());
  for (std::size_t i = begin; i < e; ++i) {
    if (t[i].k != token::kind::ident) continue;
    const std::string& s = t[i].text;
    const std::string& prev = i > 0 ? t[i - 1].text : t[i].text;
    const std::string& next = i + 1 < e ? t[i + 1].text : t[i].text;
    bool hit = false;
    if (kBlockingType.count(s) != 0) {
      hit = true;  // declaring the type at all is the bug
    } else if (next == "(" && kBlockingMember.count(s) != 0 &&
               (prev == "." || prev == "->" || prev == "::")) {
      hit = true;
    } else if (next == "(" && kBlockingFree.count(s) != 0 &&
               (prev != "." && prev != "->")) {
      hit = true;
    }
    if (!hit) continue;
    std::ostringstream msg;
    msg << "blocking construct '" << s << "' inside " << ctx
        << "; receiver-side handlers and plan callbacks run on the "
        << "progress/worker thread and must never block -- enqueue follow-up "
        << "work with communicator::async instead (docs/THREADING.md)";
    out.push_back({f.path, t[i].line, t[i].col, kCallbackBlocking, msg.str()});
  }
}

void check_callback_blocking(const std::vector<file_model>& files,
                             std::vector<diagnostic>& out) {
  for (const auto& f : files) {
    for (const auto& sd : f.structs) {
      if (sd.name.size() < 8 || sd.name.substr(sd.name.size() - 8) != "_handler") {
        continue;
      }
      for (const auto& fn : sd.methods) {
        if (fn.name == "operator()" && fn.body_end > fn.body_begin) {
          scan_blocking(f, fn.body_begin, fn.body_end,
                        "handler '" + sd.name + "::operator()'", out);
        }
      }
    }
    // .add(...) / add_reduced(..., [](...) { ... }) worker-side callbacks.
    const auto& t = f.toks;
    for (const std::size_t call : f.plan_add_calls) {
      if (call + 1 >= t.size() || t[call + 1].text != "(") continue;
      // Find the matching close paren, then any lambda bodies inside.
      std::size_t close = call + 1;
      int depth = 0;
      while (close < t.size()) {
        if (t[close].text == "(") ++depth;
        if (t[close].text == ")" && --depth == 0) break;
        ++close;
      }
      for (std::size_t i = call + 2; i < close; ++i) {
        if (t[i].text != "[" || t[i + 1].text == "[") continue;
        const token& prev = t[i - 1];
        if (prev.k == token::kind::ident || prev.text == "]" || prev.text == ")") {
          continue;  // subscript
        }
        // Skip the capture list, optional params, to the body.
        std::size_t j = i + 1;
        int bd = 1;
        while (j < close && bd > 0) {
          if (t[j].text == "[") ++bd;
          if (t[j].text == "]") --bd;
          ++j;
        }
        if (j < close && t[j].text == "(") {
          int pd = 0;
          while (j < close) {
            if (t[j].text == "(") ++pd;
            if (t[j].text == ")" && --pd == 0) {
              ++j;
              break;
            }
            ++j;
          }
        }
        while (j < close && t[j].text != "{") ++j;
        if (j >= close) break;
        std::size_t bend = j;
        int cd = 0;
        while (bend < t.size()) {
          if (t[bend].text == "{") ++cd;
          if (t[bend].text == "}" && --cd == 0) break;
          ++bend;
        }
        scan_blocking(f, j + 1, bend, "a plan callback ('" + t[call].text + "')", out);
        i = bend;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NOLINT suppression.
// ---------------------------------------------------------------------------

bool nolint_matches(const std::string& comment, const std::string& check,
                    bool nextline) {
  const std::string key = nextline ? "NOLINTNEXTLINE" : "NOLINT";
  std::size_t pos = 0;
  while ((pos = comment.find(key, pos)) != std::string::npos) {
    const std::size_t after = pos + key.size();
    if (!nextline && comment.compare(after, 8, "NEXTLINE") == 0) {
      pos = after;
      continue;  // this occurrence is the longer keyword
    }
    if (after >= comment.size() || comment[after] != '(') return true;  // bare
    const std::size_t close = comment.find(')', after);
    if (close == std::string::npos) return true;
    const std::string list = comment.substr(after + 1, close - after - 1);
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const std::size_t b = item.find_first_not_of(" \t");
      const std::size_t l = item.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      const std::string trimmed = item.substr(b, l - b + 1);
      if (trimmed == "*" || trimmed == check) return true;
    }
    pos = close;
  }
  return false;
}

bool suppressed(const diagnostic& d, const file_model& f) {
  if (const auto it = f.comments.find(d.line); it != f.comments.end()) {
    if (nolint_matches(it->second, d.check, /*nextline=*/false)) return true;
  }
  if (const auto it = f.comments.find(d.line - 1); it != f.comments.end()) {
    if (nolint_matches(it->second, d.check, /*nextline=*/true)) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const std::vector<std::string>& all_checks() {
  static const std::vector<std::string> kChecks = {
      kWirePadding, kViewMember, kStaticInit, kViewEscape, kCallbackBlocking};
  return kChecks;
}

std::set<std::string> options::default_enabled() {
  return {all_checks().begin(), all_checks().end()};
}

options options::from_spec(const std::string& spec) {
  options o;
  if (spec.empty()) return o;
  std::stringstream ss(spec);
  std::string item;
  bool first = true;
  while (std::getline(ss, item, ',')) {
    const std::size_t b = item.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    const std::size_t l = item.find_last_not_of(" \t");
    std::string name = item.substr(b, l - b + 1);
    const bool remove = !name.empty() && name[0] == '-';
    if (remove) name = name.substr(1);
    if (first && !remove) o.enabled.clear();  // positive list: start empty
    first = false;
    if (name == "*") {
      if (remove) o.enabled.clear();
      else o.enabled = default_enabled();
      continue;
    }
    if (remove) o.enabled.erase(name);
    else o.enabled.insert(name);
  }
  return o;
}

std::vector<diagnostic> run_checks(const std::vector<file_model>& files,
                                   const options& opts) {
  const global_ctx g = build_ctx(files);
  std::vector<diagnostic> all;
  if (opts.is_enabled(kWirePadding)) check_wire_padding(files, g, all);
  if (opts.is_enabled(kViewMember)) check_view_member(files, g, all);
  if (opts.is_enabled(kStaticInit)) check_handler_static_init(files, all);
  if (opts.is_enabled(kViewEscape)) check_view_escape(files, g, all);
  if (opts.is_enabled(kCallbackBlocking)) check_callback_blocking(files, all);
  // NOLINT filtering needs the owning file's comment map.
  std::map<std::string, const file_model*> by_path;
  for (const auto& f : files) by_path[f.path] = &f;
  std::vector<diagnostic> kept;
  for (const auto& d : all) {
    const auto it = by_path.find(d.file);
    if (it != by_path.end() && suppressed(d, *it->second)) continue;
    kept.push_back(d);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const diagnostic& a, const diagnostic& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.col == b.col && a.check == b.check &&
                                  a.message == b.message;
                         }),
             kept.end());
  return kept;
}

std::string format_diagnostic(const diagnostic& d) {
  std::ostringstream os;
  os << d.file << ':' << d.line << ':' << d.col << ": warning: " << d.message
     << " [" << d.check << ']';
  return os.str();
}

}  // namespace tripoll::lint
