//===- NameTable.h - One name per enum value --------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An enum's spellings live in one array of (name, value) pairs beside the
/// enum (e.g. target::TargetNames); flag rows, the server protocol and
/// report labels all read it through these two lookups.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SUPPORT_NAMETABLE_H
#define CODEREP_SUPPORT_NAMETABLE_H

#include <string_view>
#include <utility>

namespace coderep::support {

template <typename E> using NamedValue = std::pair<const char *, E>;

/// The name of \p Value in \p Names, or nullptr when no entry has it.
template <typename Table, typename E>
const char *nameOf(const Table &Names, const E &Value) {
  for (const auto &[Name, V] : Names)
    if (V == Value)
      return Name;
  return nullptr;
}

/// Sets \p Out to the value \p Names gives \p Name; false, leaving \p Out
/// untouched, when no entry has that name.
template <typename Table, typename E>
bool valueOf(const Table &Names, std::string_view Name, E &Out) {
  for (const auto &[N, V] : Names)
    if (Name == N) {
      Out = V;
      return true;
    }
  return false;
}

} // namespace coderep::support

#endif // CODEREP_SUPPORT_NAMETABLE_H
