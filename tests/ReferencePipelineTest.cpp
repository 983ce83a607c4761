//===- ReferencePipelineTest.cpp - Default pipeline vs the reference ---------===//
//
// The one differential oracle of the compile-throughput machinery. The
// default pipeline layers change-driven pass scheduling, the fused local
// sweep and the analysis cache (the shortest-path matrix included) on top
// of the paper's Figure-3 loop; PipelineOptions::Reference turns all of
// them off at once. Every suite config (14 programs x 2 targets x 3
// levels) and 200 random programs (at JUMPS and at level seed%3) must
// compile to the same bytes either way, with the same semantic counters,
// while the counters that measure the avoided work obey exact identities.
// The default pipeline's own analysis and scheduling counters over the
// suite are pinned to recorded sums.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cache/CompileCache.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "opt/Pipeline.h"
#include "verify/RandomProgram.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::bench;
using namespace coderep::driver;

namespace {

const target::TargetKind AllTargets[] = {target::TargetKind::Sparc,
                                         target::TargetKind::M68};
const opt::OptLevel AllLevels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                   opt::OptLevel::Jumps};

/// Random seeds are checked in blocks so ctest can spread them over cores.
constexpr int SeedsPerBlock = 20;
constexpr int NumSeedBlocks = 10; // seeds 1..200

struct Compiled {
  std::string Text;
  opt::PipelineStats Stats;
};

Compiled compileWith(const std::string &Source, target::TargetKind TK,
                     opt::OptLevel Level, const opt::PipelineOptions &Opts) {
  Compilation C = compile(Source, TK, Level, &Opts);
  EXPECT_TRUE(C.ok()) << C.Error;
  if (!C.ok())
    return {};
  return {cfg::toString(*C.Prog), C.Pipeline};
}

opt::PipelineOptions referenceOptions() {
  opt::PipelineOptions O;
  O.Reference = true;
  return O;
}

/// One compile configuration of the differential.
struct Config {
  std::string Name;
  std::string Source;
  target::TargetKind TK;
  opt::OptLevel Level;
};

/// A test instance: one suite program at every target and level, or one
/// block of random seeds, each at JUMPS and at level seed%3.
struct DiffParam {
  bool Random;
  int Index;
};

/// Names the instance in gtest's and ctest's test names. gtest's default
/// prints the struct's bytes, and its padding bytes are not initialised.
void PrintTo(const DiffParam &P, std::ostream *OS) {
  if (!P.Random) {
    *OS << suite()[static_cast<size_t>(P.Index)].Name;
    return;
  }
  const int First = P.Index * SeedsPerBlock + 1;
  *OS << "seeds_" << First << "_" << First + SeedsPerBlock - 1;
}

std::vector<Config> configsFor(const DiffParam &P) {
  std::vector<Config> Out;
  if (!P.Random) {
    const BenchProgram &BP = suite()[static_cast<size_t>(P.Index)];
    for (target::TargetKind TK : AllTargets)
      for (opt::OptLevel Level : AllLevels)
        Out.push_back({BP.Name + "/" + target::targetName(TK) + "/" +
                           opt::optLevelName(Level),
                       BP.Source, TK, Level});
    return Out;
  }
  const int First = P.Index * SeedsPerBlock + 1;
  for (int Seed = First; Seed < First + SeedsPerBlock; ++Seed) {
    const std::string Source =
        verify::randomProgram(static_cast<uint64_t>(Seed));
    const target::TargetKind TK =
        Seed % 2 ? target::TargetKind::Sparc : target::TargetKind::M68;
    const std::string Name = "seed " + std::to_string(Seed);
    Out.push_back({Name + " JUMPS", Source, TK, opt::OptLevel::Jumps});
    const opt::OptLevel Level = AllLevels[Seed % 3];
    if (Level != opt::OptLevel::Jumps)
      Out.push_back({Name + " " + opt::optLevelName(Level), Source, TK, Level});
  }
  return Out;
}

class ReferenceVsDefault : public ::testing::TestWithParam<DiffParam> {};

TEST_P(ReferenceVsDefault, ByteIdenticalWithMatchingCounters) {
  const opt::PipelineOptions Default;
  const opt::PipelineOptions Reference = referenceOptions();
  const int LV = static_cast<int>(opt::AnalysisID::Liveness);
  int64_t DefaultLiveness = 0, ReferenceLiveness = 0;

  for (const Config &C : configsFor(GetParam())) {
    const Compiled D = compileWith(C.Source, C.TK, C.Level, Default);
    const Compiled R = compileWith(C.Source, C.TK, C.Level, Reference);
    ASSERT_EQ(D.Text, R.Text) << C.Name << "\n" << C.Source;

    // Skipping a clean pass is running it and seeing "no change", and the
    // fused segments run their sub-passes at the reference's points, so
    // every semantic quantity agrees.
    const opt::PipelineStats &DS = D.Stats, &RS = R.Stats;
    EXPECT_EQ(DS.FixpointIterations, RS.FixpointIterations) << C.Name;
    EXPECT_EQ(DS.Replication.JumpsReplaced, RS.Replication.JumpsReplaced)
        << C.Name;
    EXPECT_EQ(DS.DelaySlotNops, RS.DelaySlotNops) << C.Name;

    // Pass accounting: the reference runs all ten slots every round; the
    // default dispatches eight (two fused slots replace four passes), each
    // either run or skipped.
    const int64_t Rounds = RS.FixpointIterations;
    EXPECT_EQ(RS.FixpointPassesRun, opt::NumFixpointPasses * Rounds) << C.Name;
    EXPECT_EQ(RS.FixpointPassesSkipped, 0) << C.Name;
    EXPECT_EQ(RS.QuiescentRounds, 0) << C.Name;
    EXPECT_EQ(DS.FixpointPassesRun + DS.FixpointPassesSkipped,
              (opt::NumFixpointPasses - 2) * Rounds)
        << C.Name;

    // The reference never serves an analysis from a cache, the step-1
    // shortest-path matrix included.
    for (int I = 0; I < opt::NumAnalysisIDs; ++I)
      EXPECT_EQ(RS.Analysis.Hits[I], 0)
          << C.Name << ": the reference served a cached "
          << opt::analysisName(static_cast<opt::AnalysisID>(I));
    EXPECT_EQ(RS.SpCacheHits, 0) << C.Name;

    DefaultLiveness += DS.Analysis.Recomputes[LV];
    ReferenceLiveness += RS.Analysis.Recomputes[LV];
  }
  EXPECT_LT(DefaultLiveness, ReferenceLiveness)
      << "the analysis cache must save liveness recomputes";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, ReferenceVsDefault,
    ::testing::ValuesIn([] {
      std::vector<DiffParam> Ps;
      for (size_t I = 0; I < suite().size(); ++I)
        Ps.push_back({false, static_cast<int>(I)});
      return Ps;
    }()),
    ::testing::PrintToStringParamName());

INSTANTIATE_TEST_SUITE_P(
    Random, ReferenceVsDefault,
    ::testing::ValuesIn([] {
      std::vector<DiffParam> Ps;
      for (int B = 0; B < NumSeedBlocks; ++B)
        Ps.push_back({true, B});
      return Ps;
    }()),
    ::testing::PrintToStringParamName());

// The whole throughput stack at once - parallel driver, function cache
// (cold, then warm) and the default pipeline - against the serial
// reference. The ThreadSanitizer CI job runs this case.
TEST(ReferencePipeline, ParallelCachedStackMatchesSerialReference) {
  cache::PipelineCache Cache;
  opt::PipelineOptions Stack;
  Stack.Jobs = 4;
  Stack.FunctionCache = &Cache;
  opt::PipelineOptions Reference = referenceOptions();
  Reference.Jobs = 1;
  for (const BenchProgram &BP : suite()) {
    for (target::TargetKind TK : AllTargets) {
      const std::string Ref =
          compileWith(BP.Source, TK, opt::OptLevel::Jumps, Reference).Text;
      for (const char *Round : {"cold", "warm"})
        EXPECT_EQ(compileWith(BP.Source, TK, opt::OptLevel::Jumps, Stack).Text,
                  Ref)
            << BP.Name << "/" << target::targetName(TK) << " " << Round;
    }
  }
  EXPECT_GT(Cache.hits(), 0);
}

// Reference is byte-neutral, so it stays out of function-cache keys: a
// body the reference stored serves a default compile.
TEST(ReferencePipeline, CacheKeyIgnoresReference) {
  cache::PipelineCache Cache;
  opt::PipelineOptions Reference = referenceOptions();
  Reference.FunctionCache = &Cache;
  opt::PipelineOptions Default;
  Default.FunctionCache = &Cache;
  const BenchProgram &BP = suite().front();

  const Compiled Cold = compileWith(BP.Source, target::TargetKind::Sparc,
                                    opt::OptLevel::Jumps, Reference);
  const Compiled Warm = compileWith(BP.Source, target::TargetKind::Sparc,
                                    opt::OptLevel::Jumps, Default);
  EXPECT_EQ(Cold.Text, Warm.Text);
  EXPECT_GT(Cold.Stats.FunctionCacheMisses, 0);
  EXPECT_EQ(Warm.Stats.FunctionCacheMisses, 0);
  EXPECT_EQ(Warm.Stats.FunctionCacheHits, Cold.Stats.FunctionCacheMisses);
}

// Byte identity cannot see a pass whose preserved-set claim changed: a
// smaller claim only makes the analysis cache recompute more, and a
// scheduler that stops skipping still reaches the same bytes. These sums
// over the 84 suite configs can.
TEST(DefaultPipeline, SuiteAnalysisAndScheduleCountersArePinned) {
  opt::PipelineStats Sum;
  const opt::PipelineOptions Default; // Jobs = 1, no function cache
  for (const BenchProgram &BP : suite())
    for (target::TargetKind TK : AllTargets)
      for (opt::OptLevel Level : AllLevels)
        Sum += compileWith(BP.Source, TK, Level, Default).Stats;

  struct Pinned {
    opt::AnalysisID ID;
    int64_t Hits, Recomputes, Invalidations;
  };
  const Pinned Analyses[] = {
      {opt::AnalysisID::FlatCfg, 2694, 1515, 506},
      {opt::AnalysisID::Dominators, 500, 1372, 363},
      {opt::AnalysisID::Loops, 1349, 1372, 363},
      {opt::AnalysisID::Liveness, 636, 1076, 1076},
      {opt::AnalysisID::ShortestPaths, 2, 278, 0},
  };
  for (const Pinned &P : Analyses) {
    const int I = static_cast<int>(P.ID);
    const char *Name = opt::analysisName(P.ID);
    EXPECT_EQ(Sum.Analysis.Hits[I], P.Hits) << Name;
    EXPECT_EQ(Sum.Analysis.Recomputes[I], P.Recomputes) << Name;
    EXPECT_EQ(Sum.Analysis.Invalidations[I], P.Invalidations) << Name;
  }
  EXPECT_EQ(Sum.FixpointPassesRun, 2300);
  EXPECT_EQ(Sum.FixpointPassesSkipped, 812);
  EXPECT_EQ(Sum.QuiescentRounds, 174);
}

} // namespace
