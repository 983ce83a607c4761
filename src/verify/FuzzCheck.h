//===- FuzzCheck.h - One compile-and-compare check of a program -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The check fuzz_compile runs on every job and verify::reduce keeps its
/// candidates by. It compiles the program twice: a reference translation
/// (front end + target legalization, no optimizer), and the full pipeline
/// with the per-pass oracle (when configured) and the bisimulation
/// validator attached. It then runs a whole-program differential of the
/// two translations on the job's input. The two must agree on exit code,
/// output and trap kind; a step-limited run on either side is
/// inconclusive, never a mismatch.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_VERIFY_FUZZCHECK_H
#define CODEREP_VERIFY_FUZZCHECK_H

#include "cfg/Function.h"
#include "opt/Pipeline.h"
#include "target/Target.h"
#include "verify/Oracle.h"

#include <cstdint>
#include <string>
#include <vector>

namespace coderep::verify {

/// One job: how to compile the program, what to run it on, and which
/// checkers watch the compile.
struct FuzzCheckOptions {
  target::TargetKind TK = target::TargetKind::M68;
  opt::OptLevel Level = opt::OptLevel::Jumps;

  /// Bytes getchar() serves in the differential runs.
  std::string Input;

  /// The per-pass oracle's settings; Gran == Off (the default) runs none.
  OracleOptions Oracle = [] {
    OracleOptions O;
    O.Gran = Granularity::Off;
    return O;
  }();

  /// Plants the pipeline's deliberate miscompile
  /// (PipelineOptions::MutateForTesting).
  bool Mutate = false;

  /// Forwarded to the pipeline; the obs layer is thread-safe, so many
  /// concurrent checks may share one sink.
  obs::TraceConfig Trace;

  /// Step budget of each differential run.
  uint64_t MaxSteps = 1u << 26;
};

/// What one check found.
struct FuzzVerdict {
  /// False when the reference translation or the compile failed; the one
  /// failure line then says which.
  bool Compiled = false;

  /// One rendered line per failed check: oracle reports, then bisimulation
  /// failures, then the differential.
  std::vector<std::string> Failures;

  OracleCounters Oracle;
  int64_t BisimChecks = 0;

  /// RTLs executed by the longest run, the oracle's or the differential's,
  /// that stayed within its step budget.
  uint64_t LongestRun = 0;

  /// True when the program compiled and some checker flagged it.
  bool miscompiled() const { return Compiled && !Failures.empty(); }
};

/// The reference translation of \p Source for \p TK: front end and target
/// legalization, no optimizer. Returns false with \p Err set when the
/// front end rejects the source.
bool referenceTranslation(const std::string &Source, target::TargetKind TK,
                          cfg::Program &Out, std::string &Err);

/// Checks MiniC \p Source: the reference translation, driver::compile
/// under the checkers, then the differential.
FuzzVerdict fuzzCheck(const std::string &Source, const FuzzCheckOptions &O);

/// Checks an already legalized program: \p Ref itself is the reference
/// translation, and a copy of it is optimized under the checkers.
FuzzVerdict fuzzCheck(const cfg::Program &Ref, const FuzzCheckOptions &O);

} // namespace coderep::verify

#endif // CODEREP_VERIFY_FUZZCHECK_H
