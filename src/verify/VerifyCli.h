//===- VerifyCli.h - Shared --verify flag handling --------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translation-validation settings and the oracle and bisimulation
/// validator they ask for. addFlags() declares the --verify=,
/// --verify-seed= and --verify-inputs= rows plus the *hidden* switch
/// --mutate-constant-folding, which plants a miscompile so the subsystem
/// can prove it catches one. apply() before compiling; finish() after
/// prints every mismatch and returns false when verification failed.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_VERIFY_VERIFYCLI_H
#define CODEREP_VERIFY_VERIFYCLI_H

#include "support/FlagTable.h"
#include "verify/Bisim.h"
#include "verify/Oracle.h"

#include <cstdio>
#include <memory>

namespace coderep::verify {

/// Owns the oracle + bisimulation validator for one binary.
class VerifyCli {
public:
  /// Declares the verification rows into \p Flags.
  void addFlags(support::FlagTable &Flags) {
    Flags.choice("verify", Opts.Gran, GranularityNames,
                 "translation-validation granularity (default off)");
    Flags.u64("verify-seed", Opts.Seed, "root seed of the oracle's inputs");
    Flags.count("verify-inputs", Opts.Inputs, "inputs per oracle check", 1);
    Flags.flag("mutate-constant-folding", Mutate, /*Help=*/nullptr);
  }

  /// Instantiates the oracle/validator and wires them into \p Options.
  /// The trace sink already in \p Options, if any, receives "verify <fn>"
  /// spans; pass it to finish() for the verify.* metrics.
  void apply(opt::PipelineOptions &Options) {
    Options.MutateForTesting = Mutate;
    if (Opts.Gran == Granularity::Off)
      return;
    Opts.Sink = Options.Trace.Sink;
    TheOracle = std::make_unique<Oracle>(Opts);
    TheBisim = std::make_unique<BisimValidator>();
    Options.Verifier = TheOracle.get();
    Options.Replication.Validator = TheBisim.get();
  }

  /// Prints every recorded mismatch and a one-line summary; returns false
  /// when any oracle or bisimulation check failed.
  bool finish(obs::TraceSink *Sink = nullptr) {
    if (!TheOracle)
      return true;
    if (Sink) {
      TheOracle->publishMetrics(Sink->metrics());
      TheBisim->publishMetrics(Sink->metrics());
    }
    for (const VerifyReport &R : TheOracle->reports())
      std::fprintf(stderr, "%s\n", formatReport(R).c_str());
    for (const std::string &F : TheBisim->failures())
      std::fprintf(stderr, "%s\n", F.c_str());
    const OracleCounters C = TheOracle->counters();
    std::fprintf(stderr,
                 "verify: %lld checks, %lld inputs, %lld mismatches, "
                 "%lld inconclusive, %lld bisim checks (%s)\n",
                 static_cast<long long>(C.Checks),
                 static_cast<long long>(C.InputsRun),
                 static_cast<long long>(C.Mismatches),
                 static_cast<long long>(C.Inconclusive),
                 static_cast<long long>(TheBisim->checks()),
                 granularityName(Opts.Gran));
    return TheOracle->ok() && TheBisim->ok();
  }

  const OracleOptions &options() const { return Opts; }

  /// True when --mutate-constant-folding was given.
  bool mutate() const { return Mutate; }

private:
  OracleOptions Opts = [] {
    OracleOptions O;
    O.Gran = Granularity::Off; // opt-in: no flag, no verification
    return O;
  }();
  bool Mutate = false;
  std::unique_ptr<Oracle> TheOracle;
  std::unique_ptr<BisimValidator> TheBisim;
};

} // namespace coderep::verify

#endif // CODEREP_VERIFY_VERIFYCLI_H
