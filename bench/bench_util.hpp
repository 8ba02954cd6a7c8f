// bench_util.hpp -- shared helpers for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper
// (docs/BENCHMARKS.md lists which) and prints rows in the same structure
// the paper reports.  Absolute numbers are not comparable to the paper's
// Catalyst cluster -- the *shape* (who wins, by what factor, where
// crossovers fall) is what to compare.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace tripoll::bench {

/// CI smoke mode for the micro benches: small problem sizes and short
/// measurement windows (seconds, not minutes).  Enabled by a `--quick`
/// argument (stripped from argv so Google Benchmark never sees it) or the
/// TRIPOLL_BENCH_QUICK environment variable.
[[nodiscard]] inline bool quick_mode(int& argc, char** argv) {
  bool quick = false;
  if (const char* s = std::getenv("TRIPOLL_BENCH_QUICK")) {
    quick = s[0] != '\0' && s[0] != '0';
  }
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return quick;
}

/// Scale adjustment for every bench: TRIPOLL_BENCH_SCALE_DELTA shifts all
/// graph sizes by a power of two (negative = faster runs).
[[nodiscard]] inline int scale_delta_from_env(int default_delta = 0) {
  if (const char* s = std::getenv("TRIPOLL_BENCH_SCALE_DELTA")) {
    return std::atoi(s);
  }
  return default_delta;
}

/// Rank counts used by scaling benches, bounded by hardware concurrency on
/// this single-node simulation; override with TRIPOLL_BENCH_MAX_RANKS.
[[nodiscard]] inline int max_ranks_from_env(int default_max = 16) {
  if (const char* s = std::getenv("TRIPOLL_BENCH_MAX_RANKS")) {
    return std::atoi(s);
  }
  return default_max;
}

[[nodiscard]] inline std::string human_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.2f GB", static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  } else if (bytes >= 1024ull * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f MB", static_cast<double>(bytes) / (1024.0 * 1024));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KB", static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%llu B", (unsigned long long)bytes);
  }
  return buf;
}

[[nodiscard]] inline std::string human_count(std::uint64_t n) {
  char buf[32];
  if (n >= 1'000'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.2fB", static_cast<double>(n) / 1e9);
  } else if (n >= 1'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.2fM", static_cast<double>(n) / 1e6);
  } else if (n >= 10'000ull) {
    std::snprintf(buf, sizeof buf, "%.1fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)n);
  }
  return buf;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("(reproduces %s; shapes comparable, absolute numbers are "
              "single-node simulation)\n\n", paper_ref);
}

inline void print_rule(int width = 100) {
  for (int i = 0; i < width; ++i) std::printf("-");
  std::printf("\n");
}

}  // namespace tripoll::bench
