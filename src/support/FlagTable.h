//===- FlagTable.h - The one command-line parser ----------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every binary's command line is one table of rows - flag name, typed
/// destination, help line - parsed once, before any work starts:
///
///   support::FlagTable Flags("minic_compiler");
///   Flags.choice("level", Level, opt::OptLevelNames, "optimization level");
///   Obs.addFlags(Flags);   // the shared packs declare their own rows
///   Flags.parseOrExit(Argc, Argv);
///
/// A flag is spelled `--name` (a switch) or `--name=VALUE`, nothing else:
/// no abbreviations and no `--name VALUE`, which is why this is not
/// getopt_long. Values are strict - numbers are plain decimal digits within
/// the row's range, text is non-empty, an enum value is one of its names.
/// An unknown flag or a rejected value is a usage error naming the flag,
/// printed with the usage generated from the rows (exit status 2); the
/// destination keeps its value. When a flag repeats, the last value wins.
/// Declaring a name twice is a programming error and aborts. Rows hold
/// references to their destinations, which must outlive the table.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SUPPORT_FLAGTABLE_H
#define CODEREP_SUPPORT_FLAGTABLE_H

#include "support/NameTable.h"

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

namespace coderep::support {

class FlagTable {
public:
  /// \p Tool names the binary in errors and in the usage line.
  explicit FlagTable(std::string Tool) : Tool(std::move(Tool)) {}

  // The rows. \p Name omits the leading "--"; a null \p Help hides the row
  // from the usage text.

  /// `--name` sets \p Dest to true.
  void flag(const char *Name, bool &Dest, const char *Help);
  /// `--name=N`: an int of at least \p Min (itself at least 0).
  void count(const char *Name, int &Dest, const char *Help, int Min = 0);
  /// `--name=N`: a uint64_t.
  void u64(const char *Name, uint64_t &Dest, const char *Help);
  /// `--name=LO:HI` sets both ends; `--name=N` sets \p Hi to N and \p Lo to
  /// its value when the row was declared.
  void u64Range(const char *Name, uint64_t &Lo, uint64_t &Hi,
                const char *Help);
  /// `--name=BYTES`: digits with an optional K, M or G suffix (any case)
  /// whose scaled value fits int64_t.
  void bytes(const char *Name, int64_t &Dest, const char *Help);
  /// `--name=X`: a plain decimal number ("0.5", "10") in [\p Min, \p Max],
  /// or in (\p Min, \p Max] when \p MinExclusive.
  void real(const char *Name, double &Dest, const char *Meta,
            const char *Help, double Min, double Max,
            bool MinExclusive = false);
  /// `--name=TEXT`: non-empty text. With \p Given, the bare `--name` is
  /// accepted too and clears \p Dest; either spelling sets *\p Given.
  void text(const char *Name, std::string &Dest, const char *Meta,
            const char *Help, bool *Given = nullptr);
  /// `--name=NAME`: a name from \p Names, a range of NamedValue<E>.
  template <typename Table, typename E>
  void choice(const char *Name, E &Dest, const Table &Names,
              const char *Help) {
    std::vector<NamedValue<E>> Choices(std::begin(Names), std::end(Names));
    std::string Meta;
    for (const auto &[N, V] : Choices)
      Meta += (Meta.empty() ? "" : "|") + std::string(N);
    add(Name, Meta, Help, Takes::Value, "one of " + Meta,
        [&Dest, Choices](const char *V) { return valueOf(Choices, V, Dest); });
  }
  /// The one argument not starting with '-'; a second one is an error, and
  /// so is none when \p Required.
  void positional(std::string &Dest, const char *Meta, const char *Help,
                  bool Required = false);

  /// Parses \p Args (argv without argv[0]). Returns "" on success, else the
  /// usage error.
  std::string parse(const std::vector<std::string> &Args);
  /// main()'s form: on a usage error, prints it with the usage to stderr
  /// and exits 2.
  void parseOrExit(int Argc, char **Argv);

  /// Prints "<tool>: \p Why" and the usage to stderr; returns 2.
  int usageError(const std::string &Why) const;
  std::string usage() const;

private:
  enum class Takes { Nothing, Value, OptionalValue };
  /// Stores a value (nullptr for the bare spelling); false rejects it.
  using Setter = std::function<bool(const char *)>;
  struct Row {
    std::string Name; ///< empty for the positional
    std::string Meta;
    const char *Help;
    Takes Arg;
    std::string Expected; ///< what a rejected value should have been
    Setter Set;
  };

  void add(const char *Name, std::string Meta, const char *Help, Takes Arg,
           std::string Expected, Setter Set);
  const Row *find(const std::string &Name) const;

  std::string Tool;
  std::vector<Row> Rows;
  bool PositionalRequired = false;
};

} // namespace coderep::support

#endif // CODEREP_SUPPORT_FLAGTABLE_H
