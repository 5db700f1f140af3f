//===- support/CliArgs.h - Command-line option helpers ----------*- C++ -*-===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The option-parsing pieces every tool shares: strict decimal parses,
/// and a reader for `--flag=VALUE` / `--flag VALUE` options whose error
/// messages carry the tool's name ("scbuild: error: ...").
///
//===----------------------------------------------------------------------===//

#ifndef SC_SUPPORT_CLIARGS_H
#define SC_SUPPORT_CLIARGS_H

#include <cstdint>
#include <cstdio>
#include <string>

namespace sc {

/// Strict decimal parse. Rejects empty strings, signs, trailing junk
/// ("4x") and overflow, all of which strtoull would quietly accept.
inline bool parseU64(const char *Text, uint64_t &Out) {
  if (!*Text)
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    const uint64_t Digit = static_cast<uint64_t>(*P - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false; // Overflow.
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

/// The same contract for 32-bit values.
inline bool parseUnsigned(const char *Text, unsigned &Out) {
  uint64_t V = 0;
  if (!parseU64(Text, V) || V > UINT32_MAX)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// Reads valued options for the tool named at construction.
class CliArgs {
public:
  CliArgs(const char *Tool, int Argc, char **Argv)
      : Tool(Tool), Argc(Argc), Argv(Argv) {}

  /// Matches `--flag=VALUE` or `--flag VALUE` (advancing \p I past the
  /// value) and stores VALUE in \p Out. A matching flag with no value
  /// is consumed too and reported as "requires a value" (failed() turns
  /// true) instead of falling through to "unknown option".
  bool value(const std::string &Arg, const char *Flag, int &I,
             std::string &Out) {
    const std::string Prefix = std::string(Flag) + "=";
    if (Arg.compare(0, Prefix.size(), Prefix) == 0) {
      Out = Arg.substr(Prefix.size());
      return true;
    }
    if (Arg != Flag)
      return false;
    if (I + 1 < Argc) {
      Out = Argv[++I];
      return true;
    }
    std::fprintf(stderr, "%s: error: option '%s' requires a value\n", Tool,
                 Flag);
    Error = true;
    return true;
  }

  /// True once value() reported a missing value.
  bool failed() const { return Error; }

  /// Parses the text of numeric option \p Flag into \p Out. Empty text
  /// (the option was not given) leaves \p Out unchanged. On a bad value
  /// prints the error and returns false.
  bool number(const std::string &Text, const char *Flag, uint64_t &Out) {
    return Text.empty() || parseU64(Text.c_str(), Out) || bad(Text, Flag);
  }
  bool number(const std::string &Text, const char *Flag, unsigned &Out) {
    return Text.empty() || parseUnsigned(Text.c_str(), Out) || bad(Text, Flag);
  }

private:
  bool bad(const std::string &Text, const char *Flag) {
    std::fprintf(stderr,
                 "%s: error: option '%s' requires a non-negative integer "
                 "(got '%s')\n",
                 Tool, Flag, Text.c_str());
    return false;
  }

  const char *Tool;
  int Argc;
  char **Argv;
  bool Error = false;
};

} // namespace sc

#endif // SC_SUPPORT_CLIARGS_H
