//===- FlagTable.cpp - The one command-line parser ------------------------===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//

#include "support/FlagTable.h"

#include "support/Check.h"
#include "support/Format.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace coderep;
using namespace coderep::support;

/// Reads plain decimal digits into \p Out. Returns false, leaving \p Out
/// untouched, on "", a sign, a blank, any other character or overflow.
static bool parseDigits(std::string_view S, uint64_t &Out) {
  uint64_t V = 0;
  auto [P, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (S.empty() || Ec != std::errc() || P != S.data() + S.size())
    return false;
  Out = V;
  return true;
}

void FlagTable::add(const char *Name, std::string Meta, const char *Help,
                    Takes Arg, std::string Expected, Setter Set) {
  CODEREP_CHECK(!find(Name), "a flag table row was declared twice");
  Rows.push_back({Name, std::move(Meta), Help, Arg, std::move(Expected),
                  std::move(Set)});
}

const FlagTable::Row *FlagTable::find(const std::string &Name) const {
  for (const Row &R : Rows)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

void FlagTable::flag(const char *Name, bool &Dest, const char *Help) {
  add(Name, "", Help, Takes::Nothing, "", [&Dest](const char *) {
    Dest = true;
    return true;
  });
}

void FlagTable::count(const char *Name, int &Dest, const char *Help,
                      int Min) {
  add(Name, "N", Help, Takes::Value,
      format("a whole number from %d to %d", Min, INT_MAX),
      [&Dest, Min](const char *V) {
        uint64_t N = 0;
        if (!parseDigits(V, N) || N < static_cast<uint64_t>(Min) ||
            N > static_cast<uint64_t>(INT_MAX))
          return false;
        Dest = static_cast<int>(N);
        return true;
      });
}

void FlagTable::u64(const char *Name, uint64_t &Dest, const char *Help) {
  add(Name, "N", Help, Takes::Value, "a whole number",
      [&Dest](const char *V) { return parseDigits(V, Dest); });
}

void FlagTable::u64Range(const char *Name, uint64_t &Lo, uint64_t &Hi,
                         const char *Help) {
  add(Name, "N|LO:HI", Help, Takes::Value, "N or LO:HI, whole numbers",
      [&Lo, &Hi, LoDefault = Lo](const char *V) {
        std::string_view S(V);
        const size_t Colon = S.find(':');
        uint64_t L = LoDefault, H = 0;
        if (Colon != S.npos && !parseDigits(S.substr(0, Colon), L))
          return false;
        if (!parseDigits(S.substr(Colon == S.npos ? 0 : Colon + 1), H))
          return false;
        Lo = L;
        Hi = H;
        return true;
      });
}

void FlagTable::bytes(const char *Name, int64_t &Dest, const char *Help) {
  add(Name, "BYTES", Help, Takes::Value,
      "digits with an optional K, M or G suffix, below 2^63",
      [&Dest](const char *V) {
        std::string_view S(V);
        int Shift = 0;
        switch (S.empty() ? '\0' : S.back()) {
        case 'k': case 'K': Shift = 10; break;
        case 'm': case 'M': Shift = 20; break;
        case 'g': case 'G': Shift = 30; break;
        }
        uint64_t N = 0;
        if (!parseDigits(S.substr(0, S.size() - (Shift ? 1 : 0)), N) ||
            N > static_cast<uint64_t>(INT64_MAX >> Shift))
          return false;
        Dest = static_cast<int64_t>(N) << Shift;
        return true;
      });
}

void FlagTable::real(const char *Name, double &Dest, const char *Meta,
                     const char *Help, double Min, double Max,
                     bool MinExclusive) {
  add(Name, Meta, Help, Takes::Value,
      format("a number in %c%g, %g]", MinExclusive ? '(' : '[', Min, Max),
      [&Dest, Min, Max, MinExclusive](const char *V) {
        // A digit first rules out signs, blanks, "inf" and "nan"; the fixed
        // format rules out exponents and hex.
        const char *End = V + std::strlen(V);
        double X = 0;
        auto [P, Ec] = std::from_chars(V, End, X, std::chars_format::fixed);
        if (*V < '0' || *V > '9' || Ec != std::errc() || P != End ||
            (MinExclusive ? X <= Min : X < Min) || X > Max)
          return false;
        Dest = X;
        return true;
      });
}

void FlagTable::text(const char *Name, std::string &Dest, const char *Meta,
                     const char *Help, bool *Given) {
  add(Name, Meta, Help, Given ? Takes::OptionalValue : Takes::Value,
      std::string("a non-empty ") + Meta, [&Dest, Given](const char *V) {
        if (V && !*V)
          return false;
        Dest = V ? V : "";
        if (Given)
          *Given = true;
        return true;
      });
}

void FlagTable::positional(std::string &Dest, const char *Meta,
                           const char *Help, bool Required) {
  PositionalRequired = Required;
  add("", Meta, Help, Takes::Value, "", [&Dest](const char *V) {
    Dest = V;
    return true;
  });
}

std::string FlagTable::parse(const std::vector<std::string> &Args) {
  const Row *Positional = find("");
  bool SawPositional = false;
  for (const std::string &Arg : Args) {
    if (Arg.empty() || Arg[0] != '-') {
      if (!Positional || SawPositional || Arg.empty())
        return "unexpected argument '" + Arg + "'";
      SawPositional = true;
      Positional->Set(Arg.c_str());
      continue;
    }
    const size_t Eq = Arg.find('=');
    const bool Bare = Eq == std::string::npos;
    const std::string Flag = Arg.substr(0, Eq);
    const Row *R = Flag.size() > 2 && Flag.starts_with("--")
                       ? find(Flag.substr(2))
                       : nullptr;
    if (!R)
      return "unknown flag " + Flag;
    if (Bare && R->Arg == Takes::Value)
      return Flag + " needs a value: " + Flag + "=" + R->Meta;
    if (!Bare && R->Arg == Takes::Nothing)
      return Flag + " takes no value";
    if (!R->Set(Bare ? nullptr : Arg.c_str() + Eq + 1))
      return Arg + ": expected " + R->Expected;
  }
  if (PositionalRequired && !SawPositional)
    return "missing " + Positional->Meta;
  return "";
}

void FlagTable::parseOrExit(int Argc, char **Argv) {
  const std::string Why =
      parse(std::vector<std::string>(Argv + 1, Argv + std::max(Argc, 1)));
  if (!Why.empty())
    std::exit(usageError(Why));
}

int FlagTable::usageError(const std::string &Why) const {
  std::fprintf(stderr, "%s: %s\n%s", Tool.c_str(), Why.c_str(),
               usage().c_str());
  return 2;
}

std::string FlagTable::usage() const {
  std::string Head = "usage: " + Tool;
  std::vector<std::pair<std::string, const char *>> Lines;
  size_t Width = 0;
  for (const Row &R : Rows) {
    if (!R.Help)
      continue;
    std::string Spelling = R.Name.empty() ? R.Meta : "--" + R.Name;
    if (R.Name.empty())
      Head += PositionalRequired ? " " + R.Meta : " [" + R.Meta + "]";
    else if (R.Arg == Takes::Value)
      Spelling += "=" + R.Meta;
    else if (R.Arg == Takes::OptionalValue)
      Spelling += "[=" + R.Meta + "]";
    Width = std::max(Width, Spelling.size());
    Lines.push_back({Spelling, R.Help});
  }
  std::string Out = Head + "\n";
  for (const auto &[Spelling, Help] : Lines)
    Out += format("  %-*s  %s\n", static_cast<int>(Width), Spelling.c_str(),
                  Help);
  return Out;
}
