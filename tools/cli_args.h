// Numeric flag parsing shared by the command-line tools (ppdriver,
// ppserve).
//
// Every numeric flag goes through one of these: junk ("abc", "12x"),
// overflow, and out-of-range values are usage errors (exit 2) instead of
// silently becoming 0 or wrapping through an unsigned cast — a negative
// `--workers` would otherwise ask for a 4294967295-wide pool, and a
// negative `--seed` would wrap to a different, valid-looking seed.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace pp_cli {

// Parse a decimal integer in [min_v, max_v]; exit 2 on anything else.
inline long long parse_int(const char* argv0, const char* flag, const char* text,
                           long long min_v, long long max_v) {
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min_v || v > max_v) {
    std::fprintf(stderr, "%s: %s expects an integer in [%lld, %lld], got '%s'\n", argv0, flag,
                 min_v, max_v, text);
    std::exit(2);
  }
  return v;
}

// Full-range uint64 parse with the same junk rejection (for seeds).
inline uint64_t parse_u64(const char* argv0, const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  unsigned long long v = *text == '-' ? 0 : std::strtoull(text, &end, 10);
  if (*text == '-' || end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n", argv0, flag, text);
    std::exit(2);
  }
  return static_cast<uint64_t>(v);
}

}  // namespace pp_cli
