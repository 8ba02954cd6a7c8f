// test_lint.cpp -- the lint suite's own regression tests.
//
// Three layers, per docs/STATIC_ANALYSIS.md:
//   1. fixtures: every `// EXPECT: <check>` marker in
//      tools/tripoll-lint/fixtures/*.cpp must match the emitted diagnostic
//      set EXACTLY (same file, same line, same check -- nothing extra,
//      nothing missing), so each check demonstrably catches its bug class;
//   2. option plumbing: disabling a check silences exactly its diagnostics
//      (the acceptance criterion "the fixture test fails if the check is
//      disabled" follows: a disabled-by-default check would emit nothing
//      and layer 1 would fail);
//   3. the real tree: src/, examples/, bench/ and the lint tool itself must
//      be clean, pinning "the checks run green on the full tree".

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;
namespace lint = tripoll::lint;

namespace {

const std::string kFixtureDir = TRIPOLL_LINT_FIXTURE_DIR;
const std::string kSourceRoot = TRIPOLL_SOURCE_ROOT;

/// (line, check) pairs -- the comparison currency of these tests.
using diag_set = std::multiset<std::pair<int, std::string>>;

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse `// EXPECT: check-a, check-b` markers into (line, check) pairs.
[[nodiscard]] diag_set expected_of(const std::string& path) {
  diag_set out;
  std::istringstream in(read_file(path));
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t at = line.find("EXPECT:");
    if (at == std::string::npos) continue;
    std::istringstream names(line.substr(at + 7));
    std::string name;
    while (std::getline(names, name, ',')) {
      const std::size_t b = name.find_first_not_of(" \t");
      const std::size_t e = name.find_last_not_of(" \t");
      if (b != std::string::npos) out.emplace(lineno, name.substr(b, e - b + 1));
    }
  }
  return out;
}

[[nodiscard]] diag_set actual_of(const std::vector<lint::diagnostic>& diags) {
  diag_set out;
  for (const auto& d : diags) out.emplace(d.line, d.check);
  return out;
}

[[nodiscard]] std::vector<lint::diagnostic> run_on(
    const std::vector<std::string>& paths,
    const lint::options& opts = lint::options{}) {
  std::vector<lint::file_model> models;
  for (const auto& p : paths) models.push_back(lint::parse_file(p));
  return lint::run_checks(models, opts);
}

[[nodiscard]] std::string fixture(const std::string& name) {
  return (fs::path(kFixtureDir) / name).string();
}

std::string dump(const std::vector<lint::diagnostic>& diags) {
  std::ostringstream os;
  for (const auto& d : diags) os << "  " << lint::format_diagnostic(d) << "\n";
  return os.str();
}

// --- layer 1: fixture diagnostic sets are exact -----------------------------------

class FixtureExact : public ::testing::TestWithParam<const char*> {};

TEST_P(FixtureExact, DiagnosticsMatchMarkers) {
  const std::string path = fixture(GetParam());
  const auto diags = run_on({path});
  EXPECT_EQ(actual_of(diags), expected_of(path)) << "diagnostics were:\n"
                                                 << dump(diags);
  for (const auto& d : diags) EXPECT_EQ(d.file, path);
}

INSTANTIATE_TEST_SUITE_P(AllFixtures, FixtureExact,
                         ::testing::Values("wire_padding_bad.cpp", "wire_padding_good.cpp",
                                           "view_member_bad.cpp", "view_member_good.cpp",
                                           "static_init_bad.cpp", "static_init_good.cpp",
                                           "view_escape_bad.cpp", "view_escape_good.cpp",
                                           "blocking_bad.cpp", "blocking_good.cpp",
                                           "blocking_add_bad.cpp", "blocking_add_good.cpp",
                                           "nolint.cpp"),
                         [](const auto& info) {
                           std::string n = info.param;
                           return n.substr(0, n.size() - 4);  // strip .cpp
                         });

// --- layer 2: each check is individually live and individually silenceable -------

struct check_case {
  const char* check;
  const char* bad_fixture;
};

class CheckToggle : public ::testing::TestWithParam<check_case> {};

TEST_P(CheckToggle, FiresWhenEnabledSilentWhenDisabled) {
  const auto [check, bad] = GetParam();
  const std::string path = fixture(bad);

  // Enabled (default): the check fires at the marked lines.
  const auto enabled = run_on({path});
  diag_set of_check;
  for (const auto& d : enabled) {
    if (d.check == check) of_check.emplace(d.line, d.check);
  }
  EXPECT_FALSE(of_check.empty()) << check << " found nothing in " << bad;
  EXPECT_EQ(of_check, expected_of(path));

  // Disabled via clang-tidy-style negative spec: exactly its diagnostics
  // disappear; nothing else changes.
  const auto disabled = run_on({path}, lint::options::from_spec(std::string("-") + check));
  for (const auto& d : disabled) EXPECT_NE(d.check, check);
  EXPECT_EQ(disabled.size(), enabled.size() - of_check.size());

  // Positive-only spec: only this check's diagnostics remain.
  const auto only = run_on({path}, lint::options::from_spec(check));
  EXPECT_EQ(actual_of(only), of_check);
}

INSTANTIATE_TEST_SUITE_P(
    AllChecks, CheckToggle,
    ::testing::Values(check_case{"tripoll-wire-padding", "wire_padding_bad.cpp"},
                      check_case{"tripoll-bitwise-view-member", "view_member_bad.cpp"},
                      check_case{"tripoll-handler-static-init", "static_init_bad.cpp"},
                      check_case{"tripoll-view-escape", "view_escape_bad.cpp"},
                      check_case{"tripoll-callback-blocking", "blocking_bad.cpp"}),
    [](const auto& info) {
      std::string n = info.param.check;
      for (auto& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(Options, SpecGrammar) {
  EXPECT_EQ(lint::options::from_spec("").enabled, lint::options::default_enabled());
  EXPECT_EQ(lint::options::from_spec("*").enabled, lint::options::default_enabled());

  const auto minus = lint::options::from_spec("-tripoll-wire-padding");
  EXPECT_FALSE(minus.is_enabled("tripoll-wire-padding"));
  EXPECT_TRUE(minus.is_enabled("tripoll-view-escape"));
  EXPECT_EQ(minus.enabled.size(), lint::all_checks().size() - 1);

  const auto only = lint::options::from_spec("tripoll-view-escape");
  EXPECT_TRUE(only.is_enabled("tripoll-view-escape"));
  EXPECT_EQ(only.enabled.size(), 1u);

  const auto combo =
      lint::options::from_spec("*,-tripoll-callback-blocking,-tripoll-view-escape");
  EXPECT_EQ(combo.enabled.size(), lint::all_checks().size() - 2);
}

TEST(Options, FiveChecksRegistered) {
  EXPECT_EQ(lint::all_checks().size(), 5u);
  for (const auto& c : lint::all_checks()) {
    EXPECT_EQ(c.rfind("tripoll-", 0), 0u) << c;
  }
}

// --- layer 3: the real tree is clean ---------------------------------------------

TEST(Tree, FullTreeIsClean) {
  const auto sources = lint::collect_sources(
      {kSourceRoot + "/src", kSourceRoot + "/examples", kSourceRoot + "/bench",
       kSourceRoot + "/tools"});
  ASSERT_GT(sources.size(), 40u) << "source walk looks broken";
  const auto diags = run_on(sources);
  EXPECT_TRUE(diags.empty()) << dump(diags);
}

TEST(Tree, FixtureSnippetsAreExcludedFromWalks) {
  // The walker must skip fixtures/ (intentionally-bad code) when handed the
  // tool directory, or CI tree runs would always be red.
  const auto sources =
      lint::collect_sources({kSourceRoot + "/tools/tripoll-lint"});
  for (const auto& s : sources) {
    EXPECT_EQ(s.find("fixtures"), std::string::npos) << s;
  }
  ASSERT_FALSE(sources.empty());
}

// --- compile_commands.json discovery ---------------------------------------------

TEST(CompileCommands, ChasesQuotedIncludesUnderRoot) {
  const fs::path root = fs::path(::testing::TempDir()) / "tripoll_lint_cc";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "sub");
  fs::create_directories(root / "build");

  const auto write = [](const fs::path& p, const std::string& body) {
    std::ofstream out(p);
    out << body;
  };
  write(root / "src" / "main.cpp",
        "#include \"sub/one.hpp\"\n#include <vector>\nint main() {}\n");
  write(root / "src" / "sub" / "one.hpp", "#pragma once\n#include \"two.hpp\"\n");
  write(root / "src" / "sub" / "two.hpp", "#pragma once\n");
  // A header outside the include chain must NOT be picked up.
  write(root / "src" / "unreferenced.hpp", "#pragma once\n");

  std::ostringstream db;
  db << "[{\"directory\": \"" << (root / "build").string() << "\",\n"
     << "  \"command\": \"/usr/bin/c++ -I" << (root / "src").string()
     << " -std=gnu++20 -c " << (root / "src" / "main.cpp").string() << "\",\n"
     << "  \"file\": \"" << (root / "src" / "main.cpp").string() << "\"}]\n";
  write(root / "build" / "compile_commands.json", db.str());

  const auto sources =
      lint::sources_from_compile_commands((root / "build").string(), root.string());
  std::set<std::string> names;
  for (const auto& s : sources) names.insert(fs::path(s).filename().string());
  EXPECT_EQ(names, (std::set<std::string>{"main.cpp", "one.hpp", "two.hpp"}));
  fs::remove_all(root);
}

TEST(CompileCommands, MissingDatabaseThrows) {
  EXPECT_THROW(lint::sources_from_compile_commands("/nonexistent-dir-tripoll", "/"),
               std::runtime_error);
}

// --- parser spot checks (the subset the checks rely on) --------------------------

TEST(Parser, MultiDeclaratorMembersWithInitializers) {
  const auto m = lint::parse_source("mem.cpp", R"(
    struct s {
      unsigned long long u = 0, v = 0;
      unsigned int a, b[4];
    };
  )");
  ASSERT_EQ(m.structs.size(), 1u);
  const auto& sd = m.structs[0];
  ASSERT_EQ(sd.members.size(), 4u);
  EXPECT_EQ(sd.members[0].name, "u");
  EXPECT_EQ(sd.members[1].name, "v");
  EXPECT_EQ(sd.members[2].name, "a");
  EXPECT_EQ(sd.members[3].name, "b");
  EXPECT_EQ(sd.members[3].array_count, 4);
}

TEST(Parser, ForceFlagLiteralVersusDependent) {
  const auto m = lint::parse_source("flags.cpp", R"(
    struct opted_out {
      static constexpr bool tripoll_force_member_serialize = true;
      int x = 0;
    };
    template <typename T>
    struct conditional {
      static constexpr bool tripoll_force_member_serialize = !bitwise<T>;
      int x = 0;
    };
    struct unflagged { int x = 0; };
  )");
  ASSERT_EQ(m.structs.size(), 3u);
  EXPECT_EQ(m.structs[0].force_flag, 1);
  EXPECT_EQ(m.structs[1].force_flag, 0);
  EXPECT_EQ(m.structs[2].force_flag, -1);
}

TEST(Parser, WireAssertAndAliasCapture) {
  const auto m = lint::parse_source("anchors.cpp", R"(
    using vertex_id = unsigned long long;
    struct edge { vertex_id u = 0; vertex_id v = 0; };
    TRIPOLL_WIRE_ASSERT(edge, u, v);
    void f(const wire_span<edge>& es);
    struct stamp { unsigned long long t = 0; };
    void g(const packed_batch<stamp>& b);
  )");
  ASSERT_EQ(m.wire_asserts.size(), 1u);
  EXPECT_EQ(m.wire_asserts[0].first, "edge");
  EXPECT_EQ(m.wire_asserts[0].second, (std::vector<std::string>{"u", "v"}));
  EXPECT_EQ(m.wire_elems.count("edge"), 1u);
  EXPECT_EQ(m.wire_elems.count("stamp"), 1u);
  ASSERT_EQ(m.aliases.count("vertex_id"), 1u);
}

TEST(Parser, HandlerBodiesAreModeled) {
  const auto m = lint::parse_source("handlers.cpp", R"(
    struct relay_handler {
      void operator()(communicator& c, int v) { c.async(0, v); }
    };
  )");
  ASSERT_EQ(m.structs.size(), 1u);
  ASSERT_EQ(m.structs[0].methods.size(), 1u);
  const auto& fn = m.structs[0].methods[0];
  EXPECT_EQ(fn.name, "operator()");
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].name, "c");
  EXPECT_EQ(fn.params[1].name, "v");
  EXPECT_GT(fn.body_end, fn.body_begin);
}

}  // namespace
