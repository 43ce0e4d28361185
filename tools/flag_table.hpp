// Command-line flag tables shared by the tools. Each tool lists its flags
// once as {name, value syntax, setter, help[, short alias]}; the table
// drives parsing, strict value checks and the generated --help text. A
// malformed or out-of-range value exits 2 with a message naming the flag,
// so a typo never runs with a silently defaulted setting.
//
// A flag whose value is required ("=X") takes it after '=' or as the next
// argument (`--label NAME`, `-j 4`); a short alias also takes it attached
// (`-j4`). An optional value ("[=X]") only follows '='.
#pragma once

#include <cctype>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace uvs::flags {

/// The class a pointer to data member belongs to.
template <auto field>
struct MemberOf;
template <typename C, typename T, T C::*field>
struct MemberOf<field> {
  using Class = C;
};
template <auto field>
using ArgsOf = typename MemberOf<field>::Class;

/// A setter stores one flag's value (nullptr when an optional value is
/// absent) and returns what a rejected value should have been, "" if none.
template <typename Args>
using Setter = std::string (*)(Args&, const char* value);

template <typename Args>
struct Flag {
  const char* name;
  const char* value;  // "=X" takes a value, "[=X]" may, "" takes none
  Setter<Args> set;
  const char* help;   // '\n' continues on the next usage line
  const char* alias = nullptr;  // short form, e.g. "-j"
};

template <auto field, long long kMin = LLONG_MIN>
std::string SetInt(ArgsOf<field>& args, const char* v) {
  auto n = args.*field;
  const char* end = v + std::strlen(v);
  const auto [p, ec] = std::from_chars(v, end, n);
  bool in_range = true;
  if constexpr (std::is_signed_v<decltype(n)>)
    in_range = n >= kMin;
  else
    in_range = kMin <= 0 || n >= static_cast<unsigned long long>(kMin);
  if (ec != std::errc{} || p != end || !in_range)
    return kMin == LLONG_MIN ? "an integer" : "an integer >= " + std::to_string(kMin);
  args.*field = n;
  return "";
}

/// A finite real in [kMin, kMax].
template <auto field, double kMin = -std::numeric_limits<double>::infinity(),
          double kMax = std::numeric_limits<double>::infinity()>
std::string SetReal(ArgsOf<field>& args, const char* v) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (*v == '\0' || std::isspace(static_cast<unsigned char>(*v)) || *end != '\0' ||
      !std::isfinite(x) || x < kMin || x > kMax) {
    char wants[64];
    if (std::isfinite(kMax))
      std::snprintf(wants, sizeof(wants), "a number in [%g, %g]", kMin, kMax);
    else if (std::isfinite(kMin))
      std::snprintf(wants, sizeof(wants), "a number >= %g", kMin);
    else
      std::snprintf(wants, sizeof(wants), "a finite number");
    return wants;
  }
  args.*field = x;
  return "";
}

template <auto field>
std::string SetText(ArgsOf<field>& args, const char* v) {
  args.*field = v;
  return "";
}

template <auto field, bool kValue = true>
std::string SetSwitch(ArgsOf<field>& args, const char*) {
  args.*field = kValue;
  return "";
}

/// `--flight-recorder[=FILE]`: the dump path, flight-recorder.json when
/// FILE is absent.
template <auto field>
std::string SetFlightPath(ArgsOf<field>& args, const char* v) {
  return SetText<field>(args, v != nullptr ? v : "flight-recorder.json");
}

template <typename Args, std::size_t N>
void PrintUsage(std::FILE* out, const char* tool, const Flag<Args> (&flags)[N],
                const char* footer) {
  std::fprintf(out, "usage: %s [flags]\n", tool);
  for (const Flag<Args>& flag : flags) {
    std::string left;
    if (flag.alias != nullptr) {
      left = flag.alias;
      if (flag.value[0] == '=') left += std::string(" ") + (flag.value + 1);
      left += ", ";
    }
    left += std::string(flag.name) + flag.value;
    std::string help = flag.help;
    for (std::size_t nl = help.find('\n'); nl != std::string::npos; nl = help.find('\n', nl + 1))
      help.insert(nl + 1, 34, ' ');
    std::fprintf(out, "  %-32s%s\n", left.c_str(), help.c_str());
  }
  std::fprintf(out, "  %-32s%s\n", "--help", "show this message");
  if (footer != nullptr) std::fprintf(out, "%s", footer);
}

/// Parses argv against `flags`. --help/-h prints the usage and exits 0; an
/// unknown flag, a missing value or a rejected one exits 2.
template <typename Args, std::size_t N>
Args Parse(int argc, char** argv, const char* tool, const Flag<Args> (&flags)[N],
           const char* footer = nullptr) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout, tool, flags, footer);
      std::exit(0);
    }
    const Flag<Args>* flag = nullptr;
    const char* value = nullptr;
    bool missing = false;
    for (const Flag<Args>& f : flags) {
      const bool needs = f.value[0] == '=';
      for (const char* name : {f.name, f.alias}) {
        if (name == nullptr) continue;
        const std::size_t len = std::strlen(name);
        if (std::strncmp(arg, name, len) != 0) continue;
        const char* rest = arg + len;
        if (*rest == '\0') {
          flag = &f;
          if (needs && i + 1 < argc) value = argv[++i];
          missing = needs && value == nullptr;
        } else if (*rest == '=' && f.value[0] != '\0') {
          flag = &f, value = rest + 1;
        } else if (name == f.alias && needs) {
          flag = &f, value = rest;
        }
        if (flag != nullptr) break;
      }
      if (flag != nullptr) break;
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n\n", arg);
      PrintUsage(stderr, tool, flags, footer);
      std::exit(2);
    }
    if (missing) {
      std::fprintf(stderr, "%s: %s wants a value\n", tool, flag->name);
      std::exit(2);
    }
    if (const std::string wants = flag->set(args, value); !wants.empty()) {
      std::fprintf(stderr, "%s: %s wants %s, got %s\n", tool, flag->name, wants.c_str(), value);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace uvs::flags
