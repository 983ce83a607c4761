//===- FunctionPrinter.h - Textual dump of functions ------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders functions in the paper's listing style: a label line "L<k>"
/// followed by one RTL per line, blocks in positional order. The examples
/// and the Table 1 / Table 2 benches show before/after code with it, and
/// the same text is the compile server's response, the function cache's
/// key material and the oracle's identity check, so printing appends into
/// a caller-owned string instead of building one per RTL.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_CFG_FUNCTIONPRINTER_H
#define CODEREP_CFG_FUNCTIONPRINTER_H

#include "cfg/Function.h"

#include <string>

namespace coderep::cfg {

/// Appends \p F's listing to \p Out: a "function <name> (frame N bytes)"
/// header, then per block its label line and one indented RTL per line
/// (the delay slot last, as "[slot] <rtl>").
void appendText(std::string &Out, const Function &F);

/// Renders \p F as appendText() does.
std::string toString(const Function &F);

/// Renders every function of \p P, each listing followed by a blank line.
std::string toString(const Program &P);

/// Renders \p F's flow graph as Graphviz DOT: one node per block (label
/// and RTL count), solid edges for branch targets, dashed edges for
/// fall-through. \p Title becomes the graph label; the observability
/// layer keys it to a replication decision-record id so before/after
/// dumps can be matched to the trace.
std::string toDot(const Function &F, const std::string &Title = {});

} // namespace coderep::cfg

#endif // CODEREP_CFG_FUNCTIONPRINTER_H
