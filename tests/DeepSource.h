//===- DeepSource.h - MiniC sources nested to a given depth -----*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three shapes of hostile source that once overflowed the compiler's
/// stack, each built to reach a given parse-tree depth as
/// frontend::MaxTreeDepth counts it: a long `+` chain, nested
/// parentheses and nested `if (a) {`. The nesting starts on line 4.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_TESTS_DEEPSOURCE_H
#define CODEREP_TESTS_DEEPSOURCE_H

#include <string>

namespace coderep::test {

inline std::string repeat(const std::string &S, int N) {
  std::string Out;
  for (int I = 0; I < N; ++I)
    Out += S;
  return Out;
}

inline std::string inMain(const std::string &Body) {
  return "int main() {\n  int a;\n  a = 1;\n" + Body + "  return a;\n}\n";
}

/// `a = a+a+...+a;`: the statement and its assignment take two levels,
/// each `+` one more.
inline std::string sumChain(int Depth) {
  return inMain("  a = a" + repeat("+a", Depth - 2) + ";\n");
}

/// `a = ((...(a)...));`: the statement, its assignment, then one level per
/// parenthesis.
inline std::string nestedParens(int Depth) {
  return inMain("  a = " + repeat("(", Depth - 2) + "a" +
                repeat(")", Depth - 2) + ";\n");
}

/// One `if (a) {` per line, each an if and its block (two levels), around
/// `a = 1;` (statement and assignment) or, for an odd depth, `a;`. The
/// innermost statement sits on line 4 + (Depth - 1) / 2.
inline std::string nestedIfs(int Depth) {
  const int N = (Depth - 1) / 2;
  return inMain(repeat("if (a) {\n", N) +
                (Depth % 2 == 0 ? "a = 1;\n" : "a;\n") + repeat("}\n", N));
}

} // namespace coderep::test

#endif // CODEREP_TESTS_DEEPSOURCE_H
