//===- Parser.h - MiniC recursive-descent parser ----------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses MiniC token streams into the AST of Ast.h.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_FRONTEND_PARSER_H
#define CODEREP_FRONTEND_PARSER_H

#include "frontend/Ast.h"

#include <string>

namespace coderep::frontend {

/// Deepest tree the parser builds. Every statement is one level below the
/// statement or block holding it; an expression is one level below the
/// parenthesis, prefix operator, assignment, conditional, call or
/// subscript holding it, and each operator of a binary or postfix chain
/// adds a level to the chain's spine. Deeper input is a syntax error, so
/// code generation and AST destruction recurse a bounded depth on any
/// source. The bound leaves headroom on an 8 MiB stack in the asan-ubsan
/// build, whose frames are several times larger than a release build's.
constexpr int MaxTreeDepth = 500;

/// Parses \p Source into \p Out. Returns false and sets \p Error on the
/// first syntax error.
bool parse(const std::string &Source, TranslationUnit &Out,
           std::string &Error);

} // namespace coderep::frontend

#endif // CODEREP_FRONTEND_PARSER_H
