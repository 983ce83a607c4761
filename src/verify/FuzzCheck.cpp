//===- FuzzCheck.cpp - One compile-and-compare check of a program -----------===//

#include "verify/FuzzCheck.h"

#include "driver/Compiler.h"
#include "ease/Interp.h"
#include "frontend/CodeGen.h"
#include "verify/Bisim.h"

#include <algorithm>
#include <memory>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::verify;

namespace {

/// The checkers of one compile, wired into the options it compiles with.
struct Checkers {
  std::unique_ptr<Oracle> TheOracle;
  BisimValidator Bisim;
  opt::PipelineOptions Pipeline;

  explicit Checkers(const FuzzCheckOptions &O) {
    Pipeline.Level = O.Level;
    Pipeline.Trace = O.Trace;
    Pipeline.MutateForTesting = O.Mutate;
    if (O.Oracle.Gran != Granularity::Off) {
      TheOracle = std::make_unique<Oracle>(O.Oracle);
      Pipeline.Verifier = TheOracle.get();
    }
    Pipeline.Replication.Validator = &Bisim;
  }

  /// Collects the checkers' verdicts on the finished compile, then runs
  /// the differential of \p Ref against \p Optimized.
  FuzzVerdict finish(const Program &Ref, const Program &Optimized,
                     const FuzzCheckOptions &O) const {
    FuzzVerdict V;
    V.Compiled = true;
    if (TheOracle) {
      V.Oracle = TheOracle->counters();
      V.LongestRun = V.Oracle.LongestRun;
      for (const VerifyReport &R : TheOracle->reports())
        V.Failures.push_back(formatReport(R));
    }
    V.BisimChecks = Bisim.checks();
    for (const std::string &F : Bisim.failures())
      V.Failures.push_back(F);

    ease::RunOptions RO;
    RO.Input = O.Input;
    RO.MaxSteps = O.MaxSteps;
    const ease::RunResult A = ease::run(Ref, RO);
    const ease::RunResult B = ease::run(Optimized, RO);
    for (const ease::RunResult *R : {&A, &B})
      if (R->TrapKind != ease::Trap::StepLimit)
        V.LongestRun = std::max(V.LongestRun, R->Stats.Executed);
    // Double-clean rule at whole-program scope: a step-limited side is
    // inconclusive, everything else (trap kind included) must match.
    if (A.TrapKind != ease::Trap::StepLimit &&
        B.TrapKind != ease::Trap::StepLimit &&
        (A.TrapKind != B.TrapKind || A.ExitCode != B.ExitCode ||
         A.Output != B.Output))
      V.Failures.push_back(
          "differential mismatch: exit " + std::to_string(A.ExitCode) +
          " vs " + std::to_string(B.ExitCode) + ", output " +
          std::to_string(A.Output.size()) + " vs " +
          std::to_string(B.Output.size()) + " bytes" +
          (A.ok() && B.ok() ? "" : " (trap on one side)"));
    return V;
  }
};

FuzzVerdict failed(const std::string &Line) {
  FuzzVerdict V;
  V.Failures.push_back(Line);
  return V;
}

} // namespace

bool verify::referenceTranslation(const std::string &Source,
                                  target::TargetKind TK, Program &Out,
                                  std::string &Err) {
  if (!frontend::compileToRtl(Source, Out, Err))
    return false;
  std::unique_ptr<target::Target> T = target::createTarget(TK);
  for (auto &F : Out.Functions) {
    T->legalizeFunction(*F);
    F->verify();
  }
  return true;
}

FuzzVerdict verify::fuzzCheck(const std::string &Source,
                              const FuzzCheckOptions &O) {
  Program Ref;
  std::string Err;
  if (!referenceTranslation(Source, O.TK, Ref, Err))
    return failed("reference translation failed: " + Err);

  Checkers C(O);
  driver::Compilation Compiled =
      driver::compile(Source, O.TK, O.Level, &C.Pipeline);
  if (!Compiled.ok())
    return failed("compile error: " + Compiled.Error);
  return C.finish(Ref, *Compiled.Prog, O);
}

FuzzVerdict verify::fuzzCheck(const Program &Ref, const FuzzCheckOptions &O) {
  Checkers C(O);
  Program Optimized = Ref.clone();
  opt::optimizeProgram(Optimized, *target::createTarget(O.TK), C.Pipeline);
  return C.finish(Ref, Optimized, O);
}
