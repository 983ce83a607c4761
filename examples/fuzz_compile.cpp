//===- fuzz_compile.cpp - Differential fuzzing driver for the pipeline -----===//
//
// Hammers the compiler with generated programs (and, with --suite, the
// paper's 84 benchmark configurations) and runs the fuzz check of
// verify/FuzzCheck.h on each compile:
//
//  1. a whole-program differential: the reference translation (front end +
//     target legalization, no optimizer) and the fully optimized program
//     must agree on exit code, output, and trap kind under ease::Interp;
//  2. the per-pass execution oracle, when a --verify granularity is given;
//  3. the CFG bisimulation validator over every applied replication rewrite.
//
// On a mismatch the offending source is delta-debugged down to a small
// repro (--reduce) and written to --repro-dir. The hidden flag
// --mutate-constant-folding plants a deliberate miscompile; together with
// --expect-mismatch (exit 0 only when a mismatch was found AND reduced to
// a small repro) it is the subsystem's mutation-testing self-check.
//
// Usage: fuzz_compile --seeds=N|LO:HI and/or --suite, plus the flags any
// malformed flag prints (targets, levels, reducer, oracle, observability).
//
// Examples:
//   ./build/examples/fuzz_compile --seeds=500 --verify=final
//   ./build/examples/fuzz_compile --suite --verify=pass
//   ./build/examples/fuzz_compile --seeds=25 --mutate-constant-folding
//       --expect-mismatch --repro-dir=repro   (one line: the self-check)
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "obs/ObsCli.h"
#include "support/FlagTable.h"
#include "support/Format.h"
#include "support/ThreadPool.h"
#include "verify/FuzzCheck.h"
#include "verify/RandomProgram.h"
#include "verify/Reduce.h"
#include "verify/VerifyCli.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace coderep;

namespace {

/// One compile+compare unit of work.
struct FuzzJob {
  std::string Name; ///< "seed-42/m68/jumps" or "wc/sparc/loops"
  std::string Source;
  verify::FuzzCheckOptions Check; ///< target, level, input and checkers
};

struct FuzzOutcome {
  verify::FuzzVerdict Verdict;
  std::string Report;    ///< rendered failure lines, one per '\n'
  std::string Reduction; ///< the reducer's verdict line, under --reduce
  int ReproBlocks = -1;  ///< reduced block count, -1 when not reduced
};

struct FuzzConfig {
  std::vector<target::TargetKind> Targets = {target::TargetKind::M68,
                                             target::TargetKind::Sparc};
  std::vector<opt::OptLevel> Levels = {opt::OptLevel::Jumps};
  /// Every job's oracle, mutation and trace settings; each job adds its
  /// target, level and input.
  verify::FuzzCheckOptions Check;
  bool Reduce = false;
  bool ExpectMismatch = false;
  std::string ReproDir;
  int Jobs = 0; ///< 0 = hardware concurrency
};

/// Each entry of an enum's name table as a one-value choice, plus \p All
/// naming every value at once: the --target= and --level= rows.
template <typename E, size_t N>
std::vector<support::NamedValue<std::vector<E>>>
choicesWithAll(const support::NamedValue<E> (&Names)[N], const char *All) {
  std::vector<support::NamedValue<std::vector<E>>> Out(1, {All, {}});
  for (const auto &[Name, V] : Names) {
    Out.push_back({Name, {V}});
    Out[0].second.push_back(V);
  }
  return Out;
}

/// Runs the fuzz check on one job and renders its failures.
FuzzOutcome checkJob(const FuzzJob &J) {
  FuzzOutcome Out;
  Out.Verdict = verify::fuzzCheck(J.Source, J.Check);
  for (const std::string &Line : Out.Verdict.Failures)
    Out.Report += J.Name + ": " + Line + "\n";
  return Out;
}

/// Reduces a failing job into \p Out and (when --repro-dir is given)
/// writes the artifacts. The reducer keeps candidates by the job's own
/// fuzz check; ReproBlocks stays -1 when the reduction did not reproduce
/// the failure.
void reduceAndDump(const FuzzConfig &C, const FuzzJob &J, FuzzOutcome &Out) {
  verify::ReduceOptions RO;
  RO.Check = J.Check;
  verify::ReduceResult R = verify::reduce(J.Source, RO);

  Out.Reduction = format("%s: %s, repro %d lines / %d blocks\n",
                         J.Name.c_str(),
                         R.Mismatch ? "reduced" : "reduction did not reproduce",
                         R.SourceLines, R.Blocks);
  if (R.Mismatch)
    Out.ReproBlocks = R.Blocks;
  if (!C.ReproDir.empty()) {
    // Workers may race to create it; whoever loses sees it exist.
    std::error_code Ignored;
    std::filesystem::create_directories(C.ReproDir, Ignored);
    std::string Stem = J.Name;
    for (char &Ch : Stem)
      if (Ch == '/')
        Ch = '-';
    const std::string Base = C.ReproDir + "/" + Stem;
    std::ofstream(Base + ".mc") << (R.Mismatch ? R.Source : J.Source);
    std::ofstream(Base + ".rtl") << R.RtlDump;
    std::ofstream(Base + ".report.txt")
        << Out.Report << "reduced: " << (R.Mismatch ? "yes" : "no")
        << "\nsource lines: " << R.SourceLines
        << "\nblocks: " << R.Blocks << "\n";
  }
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzConfig C;
  uint64_t SeedLo = 1, SeedHi = 0;
  bool Suite = false;
  obs::ObsCli Obs("fuzz_compile");
  verify::VerifyCli Verify;

  support::FlagTable Flags("fuzz_compile");
  Flags.u64Range("seeds", SeedLo, SeedHi, "random programs 1..N or LO..HI");
  Flags.flag("suite", Suite, "also sweep the 84 benchmark configurations");
  Flags.count("jobs", C.Jobs, "worker threads (0 = every core, the default)");
  Flags.choice("target", C.Targets, choicesWithAll(target::TargetNames, "both"),
               "machines (default both)");
  Flags.choice("level", C.Levels, choicesWithAll(opt::OptLevelNames, "all"),
               "optimization levels (default jumps)");
  Flags.flag("reduce", C.Reduce, "delta-debug each failure to a small repro");
  Flags.text("repro-dir", C.ReproDir, "DIR", "write reduced repros under DIR");
  Flags.flag("expect-mismatch", C.ExpectMismatch,
             "pass only if a failure reduces to <= 10 blocks (sets --reduce)");
  Obs.addFlags(Flags);
  Verify.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  C.Reduce |= C.ExpectMismatch;
  if (!Suite && SeedHi < SeedLo)
    return Flags.usageError("nothing to do (pass --seeds=N and/or --suite)");
  C.Check.Mutate = Verify.mutate();
  C.Check.Oracle = Verify.options();
  C.Check.Trace = Obs.config();
  C.Check.Oracle.Sink = C.Check.Trace.Sink;

  // The work list: every seed and/or every benchmark configuration. The
  // suite sweep always covers all 14 programs x 2 targets x 3 levels.
  std::vector<FuzzJob> Jobs;
  if (SeedHi >= SeedLo)
    for (uint64_t Seed = SeedLo; Seed <= SeedHi; ++Seed)
      for (target::TargetKind TK : C.Targets)
        for (opt::OptLevel Level : C.Levels) {
          FuzzJob J;
          J.Name = "seed-" + std::to_string(Seed) + "/" +
                   target::targetName(TK) + "/" + opt::optLevelName(Level);
          J.Source = verify::randomProgram(Seed);
          J.Check = C.Check;
          J.Check.TK = TK;
          J.Check.Level = Level;
          Jobs.push_back(std::move(J));
        }
  if (Suite)
    for (const bench::BenchProgram &BP : bench::suite())
      for (target::TargetKind TK :
           {target::TargetKind::M68, target::TargetKind::Sparc})
        for (opt::OptLevel Level :
             {opt::OptLevel::Simple, opt::OptLevel::Loops,
              opt::OptLevel::Jumps}) {
          FuzzJob J;
          J.Name = BP.Name + "/" + target::targetName(TK) + "/" +
                   opt::optLevelName(Level);
          J.Source = BP.Source;
          J.Check = C.Check;
          J.Check.TK = TK;
          J.Check.Level = Level;
          J.Check.Input = BP.Input;
          Jobs.push_back(std::move(J));
        }

  // Fan out over the shared pool; results land in job order. A failing
  // job is reduced on the worker that found it, so reductions overlap.
  std::vector<FuzzOutcome> Outcomes(Jobs.size());
  {
    // --jobs=0 gives ThreadPool(0): every core.
    ThreadPool Pool(static_cast<unsigned>(
        std::min(static_cast<size_t>(C.Jobs), Jobs.size())));
    Pool.parallelFor(Jobs.size(), [&](size_t I) {
      Outcomes[I] = checkJob(Jobs[I]);
      if (!Outcomes[I].Verdict.Failures.empty() && C.Reduce)
        reduceAndDump(C, Jobs[I], Outcomes[I]);
    });
  }

  verify::OracleCounters Total;
  int64_t BisimChecks = 0;
  size_t Failures = 0;
  int BestRepro = -1; ///< smallest reduced block count across failures
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const FuzzOutcome &O = Outcomes[I];
    const verify::FuzzVerdict &V = O.Verdict;
    Total.Checks += V.Oracle.Checks;
    Total.InputsRun += V.Oracle.InputsRun;
    Total.Mismatches += V.Oracle.Mismatches;
    Total.Inconclusive += V.Oracle.Inconclusive;
    BisimChecks += V.BisimChecks;
    if (V.Failures.empty())
      continue;
    ++Failures;
    std::fprintf(stderr, "%s%s", O.Report.c_str(), O.Reduction.c_str());
    if (O.ReproBlocks >= 0 && (BestRepro < 0 || O.ReproBlocks < BestRepro))
      BestRepro = O.ReproBlocks;
  }

  std::printf("fuzz_compile: %zu configs, %lld oracle checks, %lld inputs, "
              "%lld inconclusive, %lld bisim checks, %zu failures\n",
              Jobs.size(), static_cast<long long>(Total.Checks),
              static_cast<long long>(Total.InputsRun),
              static_cast<long long>(Total.Inconclusive),
              static_cast<long long>(BisimChecks), Failures);

  if (!Obs.finish())
    return 1;
  if (C.ExpectMismatch) {
    // The mutation self-check: the planted miscompile must be caught AND
    // shrink to a small repro, or the whole verification story is broken.
    const bool Caught = Failures > 0 && BestRepro >= 0 && BestRepro <= 10;
    std::printf("fuzz_compile: expected mismatch %s (best repro: %d "
                "blocks)\n",
                Caught ? "caught and reduced" : "NOT demonstrated",
                BestRepro);
    return Caught ? 0 : 1;
  }
  return Failures == 0 ? 0 : 1;
}
