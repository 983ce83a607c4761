//===- ParallelPipelineTest.cpp - Parallel driver, scheduler, cache ----------===//
//
// The throughput machinery of the Figure-3 pipeline holds one bar: output
// bytes must be identical to the serial, uncached pipeline in every
// configuration. These tests pin that bar across
//
//  * the parallel function-level driver (--jobs) on the whole Table-3
//    suite at every level and target,
//  * the content-addressed function cache, in memory and through its
//    on-disk persistence,
//
// plus the counters that make the savings auditable: the scheduler's
// skipped passes and quiescent rounds, and cache hits that replay semantic
// counters while work counters stay zero. The scheduler itself is checked
// against the reference pipeline in ReferencePipelineTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cache/CompileCache.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "frontend/CodeGen.h"
#include "obs/Trace.h"
#include "opt/Pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

using namespace coderep;
using namespace coderep::bench;
using namespace coderep::driver;

namespace {

const target::TargetKind AllTargets[] = {target::TargetKind::Sparc,
                                         target::TargetKind::M68};
const opt::OptLevel AllLevels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                   opt::OptLevel::Jumps};

std::string compileToText(const std::string &Source, target::TargetKind TK,
                          opt::OptLevel Level,
                          const opt::PipelineOptions &Override,
                          opt::PipelineStats *StatsOut = nullptr) {
  Compilation C = compile(Source, TK, Level, &Override);
  EXPECT_TRUE(C.ok()) << C.Error;
  if (!C.ok())
    return {};
  if (StatsOut)
    *StatsOut = C.Pipeline;
  return cfg::toString(*C.Prog);
}

// The acceptance bar of the parallel driver: program bytes AND aggregated
// stats are identical to the serial pipeline at any worker count, over the
// whole suite at every level and target.
TEST(ParallelPipeline, SerialVsParallelByteIdenticalAcrossSuite) {
  for (const BenchProgram &BP : suite()) {
    for (target::TargetKind TK : AllTargets) {
      for (opt::OptLevel Level : AllLevels) {
        opt::PipelineOptions Serial;
        Serial.Jobs = 1;
        opt::PipelineOptions Parallel;
        Parallel.Jobs = 4;

        opt::PipelineStats SerialStats, ParallelStats;
        std::string SerialText =
            compileToText(BP.Source, TK, Level, Serial, &SerialStats);
        std::string ParallelText =
            compileToText(BP.Source, TK, Level, Parallel, &ParallelStats);

        EXPECT_EQ(SerialText, ParallelText)
            << BP.Name << " differs at jobs=4, level "
            << opt::optLevelName(Level);
        // Stats are reduced in function order, so the aggregate is equally
        // deterministic (timings excepted).
        EXPECT_EQ(SerialStats.FixpointIterations,
                  ParallelStats.FixpointIterations) << BP.Name;
        EXPECT_EQ(SerialStats.FixpointPassesRun,
                  ParallelStats.FixpointPassesRun) << BP.Name;
        EXPECT_EQ(SerialStats.FixpointPassesSkipped,
                  ParallelStats.FixpointPassesSkipped) << BP.Name;
        EXPECT_EQ(SerialStats.QuiescentRounds, ParallelStats.QuiescentRounds)
            << BP.Name;
        EXPECT_EQ(SerialStats.DelaySlotNops, ParallelStats.DelaySlotNops)
            << BP.Name;
        EXPECT_EQ(SerialStats.Replication.JumpsReplaced,
                  ParallelStats.Replication.JumpsReplaced) << BP.Name;
      }
    }
  }
}

// Jobs=0 means hardware concurrency; it must hold the same bar.
TEST(ParallelPipeline, HardwareConcurrencyMatchesSerial) {
  opt::PipelineOptions Serial;
  Serial.Jobs = 1;
  opt::PipelineOptions AllCores;
  AllCores.Jobs = 0;
  const BenchProgram &BP = suite().front();
  EXPECT_EQ(compileToText(BP.Source, target::TargetKind::Sparc,
                          opt::OptLevel::Jumps, Serial),
            compileToText(BP.Source, target::TargetKind::Sparc,
                          opt::OptLevel::Jumps, AllCores));
}

TEST(ParallelPipeline, StatsMergeIsElementWise) {
  opt::PipelineStats A, B;
  A.FixpointIterations = 3;
  A.FixpointPassesRun = 30;
  A.FixpointPassesSkipped = 10;
  A.QuiescentRounds = 1;
  A.FunctionCacheHits = 2;
  A.DelaySlotNops = 5;
  A.Replication.JumpsReplaced = 7;
  A.PhaseMicros[0] = 100;
  B.FixpointIterations = 2;
  B.FixpointPassesRun = 12;
  B.FixpointPassesSkipped = 8;
  B.QuiescentRounds = 1;
  B.FunctionCacheMisses = 1;
  B.DelaySlotNops = 1;
  B.Replication.JumpsReplaced = 1;
  B.PhaseMicros[0] = 50;

  A += B;
  EXPECT_EQ(A.FixpointIterations, 5);
  EXPECT_EQ(A.FixpointPassesRun, 42);
  EXPECT_EQ(A.FixpointPassesSkipped, 18);
  EXPECT_EQ(A.QuiescentRounds, 2);
  EXPECT_EQ(A.FunctionCacheHits, 2);
  EXPECT_EQ(A.FunctionCacheMisses, 1);
  EXPECT_EQ(A.DelaySlotNops, 6);
  EXPECT_EQ(A.Replication.JumpsReplaced, 8);
  EXPECT_EQ(A.PhaseMicros[0], 150);
}

// Suite programs converge well under the iteration cap, so every function
// ends on a quiescent verification round where the scheduler skips the
// bulk of the battery.
TEST(ParallelPipeline, ConvergedFunctionsReportQuiescentRounds) {
  opt::PipelineOptions Opts;
  for (const BenchProgram &BP : suite()) {
    Compilation C = compile(BP.Source, target::TargetKind::Sparc,
                            opt::OptLevel::Jumps, &Opts);
    ASSERT_TRUE(C.ok()) << C.Error;
    EXPECT_EQ(C.Pipeline.QuiescentRounds,
              static_cast<int>(C.Prog->Functions.size()))
        << BP.Name << ": every function should converge under the cap";
    EXPECT_GT(C.Pipeline.FixpointPassesSkipped, 0) << BP.Name;
  }
}

TEST(ParallelPipeline, MetricsExposeSchedulingCounters) {
  obs::TraceSink Sink;
  opt::PipelineOptions Opts;
  Opts.Trace.Sink = &Sink;
  Compilation C = compile(suite().front().Source, target::TargetKind::Sparc,
                          opt::OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(Sink.metrics().value("pipeline.fixpoint_passes_run"),
            C.Pipeline.FixpointPassesRun);
  EXPECT_EQ(Sink.metrics().value("pipeline.fixpoint_passes_skipped"),
            C.Pipeline.FixpointPassesSkipped);
  EXPECT_EQ(Sink.metrics().value("pipeline.quiescent_rounds"),
            C.Pipeline.QuiescentRounds);
  EXPECT_GT(C.Pipeline.FixpointPassesSkipped, 0);
  // The keys ride in the exported JSON, for dashboards diffing runs.
  std::string Json = Sink.metricsJson();
  EXPECT_NE(Json.find("pipeline.fixpoint_passes_skipped"), std::string::npos);
  EXPECT_NE(Json.find("pipeline.quiescent_rounds"), std::string::npos);
}

// A cache hit must be byte-identical to a cold compile, replay the
// semantic counters, and charge no work counters.
TEST(ParallelPipeline, CacheHitIsByteIdenticalToColdCompile) {
  for (target::TargetKind TK : AllTargets) {
    cache::PipelineCache Cache;
    opt::PipelineOptions Opts;
    Opts.FunctionCache = &Cache;
    for (const BenchProgram &BP : suite()) {
      opt::PipelineStats Cold, Warm;
      std::string ColdText =
          compileToText(BP.Source, TK, opt::OptLevel::Jumps, Opts, &Cold);
      std::string WarmText =
          compileToText(BP.Source, TK, opt::OptLevel::Jumps, Opts, &Warm);
      ASSERT_EQ(ColdText, WarmText) << BP.Name;

      EXPECT_EQ(Cold.FunctionCacheHits, 0) << BP.Name;
      EXPECT_GT(Cold.FunctionCacheMisses, 0) << BP.Name;
      EXPECT_EQ(Warm.FunctionCacheMisses, 0) << BP.Name;
      EXPECT_EQ(Warm.FunctionCacheHits, Cold.FunctionCacheMisses) << BP.Name;
      // Semantic counters replay; work counters stay untouched.
      EXPECT_EQ(Warm.FixpointIterations, Cold.FixpointIterations) << BP.Name;
      EXPECT_EQ(Warm.DelaySlotNops, Cold.DelaySlotNops) << BP.Name;
      EXPECT_EQ(Warm.Replication.JumpsReplaced,
                Cold.Replication.JumpsReplaced) << BP.Name;
      EXPECT_EQ(Warm.FixpointPassesRun, 0) << BP.Name;
      EXPECT_EQ(Warm.FixpointPassesSkipped, 0) << BP.Name;
    }
  }
}

// Different levels, targets, and options must never collide in the cache.
TEST(ParallelPipeline, CacheKeySeparatesConfigurations) {
  cache::PipelineCache Cache;
  opt::PipelineOptions Opts;
  Opts.FunctionCache = &Cache;
  const BenchProgram &BP = suite().front();

  std::string Texts[2][3];
  for (int T = 0; T < 2; ++T)
    for (int L = 0; L < 3; ++L)
      Texts[T][L] =
          compileToText(BP.Source, AllTargets[T], AllLevels[L], Opts);

  // Recompiling through the warm cache still yields per-config results.
  for (int T = 0; T < 2; ++T)
    for (int L = 0; L < 3; ++L)
      EXPECT_EQ(Texts[T][L],
                compileToText(BP.Source, AllTargets[T], AllLevels[L], Opts))
          << "target " << T << " level " << L;
  // Sanity: the configurations genuinely differ for this program.
  EXPECT_NE(Texts[0][0], Texts[1][0]);
  EXPECT_GT(Cache.hits(), 0);
}

TEST(ParallelPipeline, CachePersistsAcrossInstancesViaDisk) {
  const std::string Dir =
      (std::filesystem::path(::testing::TempDir()) / "coderep_pipeline_cache")
          .string();
  std::filesystem::remove_all(Dir);
  const BenchProgram &BP = suite().front();

  std::string ColdText;
  {
    cache::PipelineCache Writer(Dir);
    opt::PipelineOptions Opts;
    Opts.FunctionCache = &Writer;
    ColdText = compileToText(BP.Source, target::TargetKind::Sparc,
                             opt::OptLevel::Jumps, Opts);
    EXPECT_GT(Writer.diskWrites(), 0);
  }
  {
    // A fresh instance starts with an empty LRU; hits must come from disk.
    cache::PipelineCache Reader(Dir);
    opt::PipelineOptions Opts;
    Opts.FunctionCache = &Reader;
    opt::PipelineStats Warm;
    std::string WarmText = compileToText(BP.Source, target::TargetKind::Sparc,
                                         opt::OptLevel::Jumps, Opts, &Warm);
    EXPECT_EQ(ColdText, WarmText);
    EXPECT_GT(Reader.diskHits(), 0);
    EXPECT_EQ(Warm.FunctionCacheMisses, 0);
    EXPECT_GT(Warm.FunctionCacheHits, 0);
  }
  std::filesystem::remove_all(Dir);
}

// A corrupt or truncated entry file must degrade to a miss, never to
// wrong code or a crash.
TEST(ParallelPipeline, CorruptDiskEntryDegradesToMiss) {
  const std::string Dir =
      (std::filesystem::path(::testing::TempDir()) / "coderep_corrupt_cache")
          .string();
  std::filesystem::remove_all(Dir);
  const BenchProgram &BP = suite().front();

  std::string ColdText;
  {
    cache::PipelineCache Writer(Dir);
    opt::PipelineOptions Opts;
    Opts.FunctionCache = &Writer;
    ColdText = compileToText(BP.Source, target::TargetKind::Sparc,
                             opt::OptLevel::Jumps, Opts);
  }
  // Entries live inside the per-nibble shard subdirectories.
  for (const auto &File :
       std::filesystem::recursive_directory_iterator(Dir)) {
    if (!File.is_regular_file())
      continue;
    std::ofstream Out(File.path(), std::ios::trunc);
    Out << "coderep-pipeline-cache 1\nkey 3\nxyz garbage";
  }
  {
    cache::PipelineCache Reader(Dir);
    opt::PipelineOptions Opts;
    Opts.FunctionCache = &Reader;
    opt::PipelineStats Stats;
    std::string Text = compileToText(BP.Source, target::TargetKind::Sparc,
                                     opt::OptLevel::Jumps, Opts, &Stats);
    EXPECT_EQ(ColdText, Text);
    EXPECT_EQ(Reader.diskHits(), 0);
    EXPECT_GT(Stats.FunctionCacheMisses, 0);
  }
  std::filesystem::remove_all(Dir);
}

TEST(ParallelPipeline, LruEvictsBeyondCapacity) {
  cache::PipelineCache Tiny("", /*MaxEntries=*/2);
  opt::PipelineOptions Opts;
  Opts.FunctionCache = &Tiny;
  const BenchProgram &BP = suite().front();
  for (opt::OptLevel L : AllLevels)
    for (target::TargetKind TK : AllTargets)
      compileToText(BP.Source, TK, L, Opts);
  EXPECT_LE(Tiny.entries(), 2u);
  EXPECT_GT(Tiny.evictions(), 0);
}

} // namespace
