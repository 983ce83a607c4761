//===- Reduce.h - Delta-debugging reducer for miscompiles -------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shrinks a miscompiling MiniC program while the miscompile persists.
/// The interesting-ness predicate is the fuzz check (verify/FuzzCheck.h)
/// of the failing job - its target, level, input, oracle settings and
/// mutation flag: a candidate is kept when it still compiles and the
/// oracle, the bisimulation validator or the whole-program differential
/// flags it. So a failure only the oracle sees reduces too.
///
/// Two stages, both on that predicate:
///  1. ddmin over source lines: chunks of shrinking size are removed while
///     the predicate holds (syntactically broken candidates simply fail
///     the front end and are rejected by the predicate).
///  2. RTL-level shrinking of the reduced program: block bodies emptied to
///     their terminators, conditional branches deleted, switches
///     collapsed to their first arm, unreferenced blocks erased, and
///     non-main functions stubbed to a bare return - greedily, to a
///     fixpoint. Every mutation is structurally valid by construction
///     (Function::verify aborts the process, so try-and-catch is not an
///     option).
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_VERIFY_REDUCE_H
#define CODEREP_VERIFY_REDUCE_H

#include "verify/FuzzCheck.h"

#include <cstdint>
#include <string>

namespace coderep::verify {

/// Reducer configuration.
struct ReduceOptions {
  /// The failing job. Its trace sink is dropped, and the differential's
  /// step budget is MaxSteps below.
  FuzzCheckOptions Check;

  /// Greedy RTL-stage sweeps (each sweep retries every mutation site).
  int MaxRounds = 8;

  /// Step budget per differential run; step-limited runs make a candidate
  /// uninteresting rather than interesting (never reduce into a hang).
  uint64_t MaxSteps = 1u << 22;
};

/// Outcome of a reduction.
struct ReduceResult {
  /// False when the original input never triggered a mismatch (nothing to
  /// reduce; the other fields then describe the unreduced input).
  bool Mismatch = false;

  std::string Source;  ///< minimal miscompiling MiniC source
  std::string RtlDump; ///< the reduced program's RTL (post-legalize)
  int SourceLines = 0; ///< lines in Source
  int Blocks = 0;      ///< basic blocks in the reduced RTL program
};

/// Reduces \p Source. The input should already be known to fail the fuzz
/// check of \p O; if it does not, the result has Mismatch == false.
ReduceResult reduce(const std::string &Source, const ReduceOptions &O);

} // namespace coderep::verify

#endif // CODEREP_VERIFY_REDUCE_H
