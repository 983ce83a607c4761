//===- VerifyTest.cpp - Translation-validation subsystem tests --------------------===//
//
// End-to-end tests of the verify/ subsystem: the per-pass execution oracle,
// the CFG bisimulation validator for replication rewrites, and the
// miscompile reducer. The mutation tests drive the pipeline's hidden
// MutateForTesting flag to prove the oracle catches, attributes and
// shrinks a real (injected) miscompile.
//
//===----------------------------------------------------------------------===//

#include "verify/Bisim.h"
#include "verify/Oracle.h"
#include "verify/RandomProgram.h"
#include "verify/Reduce.h"

#include "Suite.h"
#include "cache/CompileCache.h"
#include "cfg/FunctionPrinter.h"
#include "opt/Pass.h"
#include "driver/Compiler.h"
#include "frontend/CodeGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::driver;
using namespace coderep::rtl;
using namespace coderep::verify;

namespace {

TEST(Verify, GranularityParsing) {
  Granularity G = Granularity::Final;
  EXPECT_TRUE(parseGranularity("off", G));
  EXPECT_EQ(G, Granularity::Off);
  EXPECT_TRUE(parseGranularity("final", G));
  EXPECT_EQ(G, Granularity::Final);
  EXPECT_TRUE(parseGranularity("pass", G));
  EXPECT_EQ(G, Granularity::Pass);
  EXPECT_TRUE(parseGranularity("round", G));
  EXPECT_EQ(G, Granularity::Round);
  EXPECT_FALSE(parseGranularity("bogus", G));
  for (Granularity Each : {Granularity::Off, Granularity::Final,
                           Granularity::Pass, Granularity::Round}) {
    Granularity Back = Granularity::Off;
    ASSERT_TRUE(parseGranularity(granularityName(Each), Back));
    EXPECT_EQ(Back, Each);
  }
}

TEST(Verify, ReportFormatIsStable) {
  VerifyReport R;
  R.Function = "f0";
  R.Pass = "constant folding";
  R.Round = 2;
  R.Seed = 7;
  R.InputIndex = 1;
  R.Divergence = VerifyReport::Kind::ExitCode;
  R.Detail = "exit code 4 vs 9";
  EXPECT_EQ(formatReport(R),
            "verify mismatch: fn=f0 pass=constant folding round=2 seed=7 "
            "input=1 diverged=exit-code: exit code 4 vs 9");
}

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// A diamond: cmp; branch to the "2" arm on Eq (or as directed), else fall
/// through to the "1" arm. \p Reversed negates the condition; \p Swapped
/// also swaps which arm holds which constant, so Reversed+Swapped is the
/// paper's legal branch reversal and Reversed alone is a miscompile.
std::unique_ptr<Function> diamond(bool Reversed, bool Swapped) {
  auto F = std::make_unique<Function>("d");
  for (int I = 0; I < 4; ++I)
    F->freshVReg();
  int L = F->freshLabel();
  BasicBlock *B0 = F->appendBlock();
  B0->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
  B0->Insns.push_back(
      Insn::condJump(Reversed ? CondCode::Ne : CondCode::Eq, L));
  BasicBlock *B1 = F->appendBlock();
  B1->Insns.push_back(
      Insn::move(Operand::reg(RegRV), Operand::imm(Swapped ? 2 : 1)));
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = F->appendBlockWithLabel(L);
  B2->Insns.push_back(
      Insn::move(Operand::reg(RegRV), Operand::imm(Swapped ? 1 : 2)));
  B2->Insns.push_back(Insn::ret());
  F->verify();
  return F;
}

TEST(Bisim, IdenticalFunctionsAreEquivalent) {
  auto A = diamond(false, false);
  BisimResult R = checkBisimulation(*A, *A->clone());
  EXPECT_TRUE(R.Equivalent) << R.Detail;
}

TEST(Bisim, ReversedBranchWithSwappedArmsIsEquivalent) {
  auto Before = diamond(false, false);
  auto After = diamond(true, true);
  BisimResult R = checkBisimulation(*Before, *After);
  EXPECT_TRUE(R.Equivalent) << R.Detail;
}

TEST(Bisim, ReversedBranchAloneIsRejected) {
  auto Before = diamond(false, false);
  auto After = diamond(true, false);
  BisimResult R = checkBisimulation(*Before, *After);
  EXPECT_FALSE(R.Equivalent);
  EXPECT_FALSE(R.Detail.empty());
}

TEST(Bisim, AcceptsEveryAppliedRewriteInTheSuite) {
  // Every replication decision applied while compiling the whole Table-3
  // suite, both targets, all three levels, must bisimulate. LOOPS/JUMPS
  // configs are where rewrites actually fire; SIMPLE rides along to prove
  // the validator is inert when replication is off.
  BisimValidator V;
  opt::PipelineOptions Opts;
  Opts.Replication.Validator = &V;
  for (const bench::BenchProgram &BP : bench::suite())
    for (target::TargetKind TK :
         {target::TargetKind::M68, target::TargetKind::Sparc})
      for (opt::OptLevel L : {opt::OptLevel::Simple, opt::OptLevel::Loops,
                              opt::OptLevel::Jumps}) {
        Compilation C = compile(BP.Source, TK, L, &Opts);
        ASSERT_TRUE(C.ok()) << BP.Name << ": " << C.Error;
      }
  EXPECT_GT(V.checks(), 0);
  EXPECT_TRUE(V.ok()) << V.failures().front();
}

TEST(Verify, OracleIsCleanOnRandomPrograms) {
  // Pass granularity over a few generated programs: every pass invocation
  // that changes a function re-executes it against the rolling baseline.
  for (uint64_t Seed : {1u, 2u, 3u}) {
    OracleOptions OO;
    OO.Gran = Granularity::Pass;
    Oracle O(OO);
    opt::PipelineOptions Opts;
    Opts.Verifier = &O;
    Compilation C = compile(randomProgram(Seed), target::TargetKind::M68,
                            opt::OptLevel::Jumps, &Opts);
    ASSERT_TRUE(C.ok()) << C.Error;
    EXPECT_GT(O.counters().Checks, 0) << "seed " << Seed;
    EXPECT_TRUE(O.ok()) << "seed " << Seed << ": "
                        << formatReport(O.reports().front());
  }
}

/// One suite program's oracle counters at Granularity::Final, summed over
/// both targets and all three levels.
struct FinalVerdicts {
  const char *Program;
  int64_t Checks, Inputs, Inconclusive;
};

void PrintTo(const FinalVerdicts &V, std::ostream *OS) { *OS << V.Program; }

/// Recorded from the block-walking interpreter the image replaced; the
/// totals are `fuzz_compile --seeds=0 --suite --verify=final`'s.
constexpr FinalVerdicts SuiteFinalVerdicts[] = {
    {"cal", 18, 72, 18},       {"quicksort", 6, 24, 0},
    {"wc", 6, 24, 0},          {"grep", 24, 96, 36},
    {"sort", 18, 72, 24},      {"od", 6, 24, 0},
    {"mincost", 18, 72, 0},    {"bubblesort", 6, 24, 24},
    {"matmult", 6, 24, 24},    {"banner", 24, 96, 12},
    {"sieve", 6, 24, 24},      {"compact", 12, 48, 18},
    {"queens", 18, 72, 6},     {"deroff", 6, 24, 0},
};

constexpr FinalVerdicts sumOf(const FinalVerdicts (&Table)[14]) {
  FinalVerdicts Sum{"all", 0, 0, 0};
  for (const FinalVerdicts &V : Table) {
    Sum.Checks += V.Checks;
    Sum.Inputs += V.Inputs;
    Sum.Inconclusive += V.Inconclusive;
  }
  return Sum;
}
static_assert(sumOf(SuiteFinalVerdicts).Checks == 174 &&
              sumOf(SuiteFinalVerdicts).Inputs == 696 &&
              sumOf(SuiteFinalVerdicts).Inconclusive == 186);

class OracleSuiteVerdicts : public ::testing::TestWithParam<FinalVerdicts> {};

TEST_P(OracleSuiteVerdicts, FinalGranularityCountersArePinned) {
  // The oracle's verdicts rest on the interpreter's trap and step
  // semantics: which probes hit the step budget or trap decides which
  // inputs are inconclusive.
  const FinalVerdicts &V = GetParam();
  const bench::BenchProgram *BP = nullptr;
  for (const bench::BenchProgram &P : bench::suite())
    if (P.Name == V.Program)
      BP = &P;
  ASSERT_NE(BP, nullptr) << V.Program << " is not a suite program";
  OracleCounters Sum;
  for (target::TargetKind TK :
       {target::TargetKind::M68, target::TargetKind::Sparc})
    for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                opt::OptLevel::Jumps}) {
      OracleOptions OO;
      OO.Gran = Granularity::Final;
      Oracle O(OO);
      opt::PipelineOptions Opts;
      Opts.Verifier = &O;
      Compilation C = compile(BP->Source, TK, Level, &Opts);
      ASSERT_TRUE(C.ok()) << C.Error;
      const OracleCounters OC = O.counters();
      Sum.Checks += OC.Checks;
      Sum.InputsRun += OC.InputsRun;
      Sum.Inconclusive += OC.Inconclusive;
      Sum.Mismatches += OC.Mismatches;
    }
  EXPECT_EQ(Sum.Checks, V.Checks);
  EXPECT_EQ(Sum.InputsRun, V.Inputs);
  EXPECT_EQ(Sum.Inconclusive, V.Inconclusive);
  EXPECT_EQ(Sum.Mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Suite, OracleSuiteVerdicts,
                         ::testing::ValuesIn(SuiteFinalVerdicts),
                         ::testing::PrintToStringParamName());

const char *MutationVictim = R"(
int f0(int a, int b) {
  if (a < b)
    return a;
  return b;
}
int main() {
  printf("%d\n", f0(3, 8));
  return 0;
}
)";

TEST(Verify, MutationIsCaughtAndAttributedAtPassGranularity) {
  OracleOptions OO;
  OO.Gran = Granularity::Pass;
  Oracle O(OO);
  opt::PipelineOptions Opts;
  Opts.Verifier = &O;
  Opts.MutateForTesting = true;
  // Drive the reference pipeline so every register pass is its own
  // checkpoint - the finest attribution the pipeline offers.
  Opts.Reference = true;
  Compilation C = compile(MutationVictim, target::TargetKind::M68,
                          opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C.ok()) << C.Error;
  EXPECT_FALSE(O.ok());
  ASSERT_FALSE(O.reports().empty());
  // Pass granularity pins the miscompile to the pass that introduced it:
  // the mutation rides the first constant-folding invocation.
  const VerifyReport R = O.reports().front();
  EXPECT_EQ(R.Function, "f0");
  EXPECT_EQ(R.Pass, "constant folding");
  EXPECT_FALSE(O.functionVerifiedClean("f0"));
  EXPECT_GT(O.counters().Mismatches, 0);
}

TEST(Verify, MutationUnderDefaultScheduleIsAttributedToConstantFolding) {
  OracleOptions OO;
  OO.Gran = Granularity::Pass;
  Oracle O(OO);
  opt::PipelineOptions Opts;
  Opts.Verifier = &O;
  Opts.MutateForTesting = true;
  ASSERT_FALSE(Opts.Reference); // the default schedule
  Compilation C = compile(MutationVictim, target::TargetKind::M68,
                          opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C.ok()) << C.Error;
  EXPECT_FALSE(O.ok());
  ASSERT_FALSE(O.reports().empty());
  // The default schedule also runs constant folding in its own slot, so it
  // attributes the miscompile as finely as the reference pipeline does.
  const VerifyReport R = O.reports().front();
  EXPECT_EQ(R.Function, "f0");
  EXPECT_EQ(R.Pass, "constant folding");
  EXPECT_FALSE(O.functionVerifiedClean("f0"));
  EXPECT_GT(O.counters().Mismatches, 0);
}

TEST(Verify, MutationIsCaughtAtFinalGranularity) {
  OracleOptions OO;
  OO.Gran = Granularity::Final;
  Oracle O(OO);
  opt::PipelineOptions Opts;
  Opts.Verifier = &O;
  Opts.MutateForTesting = true;
  Compilation C = compile(MutationVictim, target::TargetKind::M68,
                          opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C.ok()) << C.Error;
  EXPECT_FALSE(O.ok());
  ASSERT_FALSE(O.reports().empty());
  EXPECT_EQ(O.reports().front().Pass, "final");
}

TEST(Verify, MutationReducesToSmallRepro) {
  ReduceOptions RO;
  RO.Check.TK = target::TargetKind::M68;
  RO.Check.Level = opt::OptLevel::Jumps;
  RO.Check.Mutate = true;
  ReduceResult R = reduce(MutationVictim, RO);
  ASSERT_TRUE(R.Mismatch);
  EXPECT_FALSE(R.Source.empty());
  EXPECT_FALSE(R.RtlDump.empty());
  EXPECT_LE(R.Blocks, 10);
  // The reduced source must itself still miscompile (reduce re-checks it,
  // but prove it from the outside too): reference vs. mutated pipeline.
  ease::RunResult Ref =
      compileAndRun(R.Source, RO.Check.TK, opt::OptLevel::Simple);
  opt::PipelineOptions Bad;
  Bad.MutateForTesting = true;
  Compilation C = compile(R.Source, RO.Check.TK, RO.Check.Level, &Bad);
  ASSERT_TRUE(C.ok()) << C.Error;
  ease::RunResult Mut = ease::run(*C.Prog, {});
  EXPECT_TRUE(Ref.Output != Mut.Output || Ref.ExitCode != Mut.ExitCode ||
              Ref.TrapKind != Mut.TrapKind);
}

// Seed 3's planted miscompile never reaches main's output: only the
// oracle, which calls each function on its own inputs, sees it. The
// reducer keeps candidates by the job's own check, oracle included.
TEST(Verify, OracleOnlyFailureReduces) {
  ReduceOptions RO;
  RO.Check.TK = target::TargetKind::M68;
  RO.Check.Level = opt::OptLevel::Jumps;
  RO.Check.Mutate = true;
  RO.Check.Oracle.Gran = Granularity::Pass;
  const std::string Src = randomProgram(3);
  FuzzCheckOptions DifferentialOnly = RO.Check;
  DifferentialOnly.Oracle.Gran = Granularity::Off;
  ASSERT_FALSE(fuzzCheck(Src, DifferentialOnly).miscompiled());
  ASSERT_TRUE(fuzzCheck(Src, RO.Check).miscompiled());

  ReduceResult R = reduce(Src, RO);
  ASSERT_TRUE(R.Mismatch);
  EXPECT_LE(R.Blocks, 10);
  EXPECT_TRUE(fuzzCheck(R.Source, RO.Check).miscompiled()) << R.Source;
}

TEST(Verify, NoMismatchMeansNothingToReduce) {
  ReduceOptions RO;
  ReduceResult R = reduce("int main() { return 3; }", RO);
  EXPECT_FALSE(R.Mismatch);
}

TEST(Verify, CacheHitSkipsTheOracle) {
  cache::PipelineCache Cache;
  const std::string Src = randomProgram(11);

  OracleOptions OO;
  OO.Gran = Granularity::Final;
  Oracle O1(OO);
  opt::PipelineOptions Opts;
  Opts.FunctionCache = &Cache;
  Opts.Verifier = &O1;
  Compilation C1 =
      compile(Src, target::TargetKind::Sparc, opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C1.ok()) << C1.Error;
  ASSERT_TRUE(O1.ok());
  EXPECT_GT(C1.Pipeline.FunctionCacheMisses, 0);

  // Second compile: hits bypass the pipeline entirely, so the verifier is
  // never consulted.
  Oracle O2(OO);
  Opts.Verifier = &O2;
  Compilation C2 =
      compile(Src, target::TargetKind::Sparc, opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C2.ok()) << C2.Error;
  EXPECT_GT(C2.Pipeline.FunctionCacheHits, 0);
  EXPECT_EQ(O2.counters().Checks, 0);
}

TEST(Verify, VerifyingCompileWritesEachDiskEntryOnce) {
  // The oracle leaves the disk store alone: a verifying compile writes one
  // entry file per miss, as a plain one does.
  const std::string Dir =
      (std::filesystem::path(::testing::TempDir()) / "coderep_verify_writes")
          .string();
  std::filesystem::remove_all(Dir);
  {
    cache::PipelineCache Cache(Dir);
    OracleOptions OO;
    OO.Gran = Granularity::Final;
    Oracle O(OO);
    opt::PipelineOptions Opts;
    Opts.FunctionCache = &Cache;
    Opts.Verifier = &O;
    Compilation C = compile(randomProgram(11), target::TargetKind::Sparc,
                            opt::OptLevel::Jumps, &Opts);
    ASSERT_TRUE(C.ok()) << C.Error;
    ASSERT_TRUE(O.ok());
    EXPECT_GT(Cache.misses(), 0);
    EXPECT_EQ(Cache.diskWrites(), Cache.misses());
  }
  std::filesystem::remove_all(Dir);
}

TEST(Verify, MutationChangesFunctionCacheKeys) {
  // MutateForTesting is semantic, so a mutated compile must not be served
  // a clean compile's cached body (or vice versa).
  cache::PipelineCache Cache;
  opt::PipelineOptions Opts;
  Opts.FunctionCache = &Cache;
  Compilation C1 = compile(MutationVictim, target::TargetKind::M68,
                           opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C1.ok());
  Opts.MutateForTesting = true;
  Compilation C2 = compile(MutationVictim, target::TargetKind::M68,
                           opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C2.ok());
  EXPECT_EQ(C2.Pipeline.FunctionCacheHits, 0);
}

TEST(Verify, RandomProgramsAreDeterministicPerSeed) {
  EXPECT_EQ(randomProgram(42), randomProgram(42));
  EXPECT_NE(randomProgram(1), randomProgram(2));
}

TEST(Verify, PipelineHandlesReducerShapedFunctions) {
  // The reducer feeds the optimizer shapes the frontend never emits: a
  // function stubbed to a bare return (no prologue) while ParamBytes and
  // frame metadata survive, and empty fall-through blocks. Regression for
  // register assignment inserting parameter loads after the terminator.
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(MutationVictim, P, Err)) << Err;
  auto T = target::createTarget(target::TargetKind::M68);
  for (auto &F : P.Functions) {
    T->legalizeFunction(*F);
    F->verify();
  }
  Function &F0 = *P.Functions[0];
  ASSERT_EQ(F0.Name, "f0");
  F0.block(0)->Insns.assign(1, Insn::ret());
  while (F0.size() > 1)
    F0.eraseBlock(1);
  F0.noteRtlEdit();
  F0.verify();
  opt::PipelineOptions Opts;
  Opts.Level = opt::OptLevel::Jumps;
  opt::optimizeProgram(P, *T, Opts);
  for (const auto &F : P.Functions)
    F->verify();
}

} // namespace
