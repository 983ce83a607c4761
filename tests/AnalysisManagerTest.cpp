//===- AnalysisManagerTest.cpp - Cached analyses + invalidation -------------===//
//
// The analysis manager holds the same bar as every other throughput layer:
// serving FlatCfg/dominators/loops/liveness from the cache must be
// byte-identical to recomputing them at every query. These tests pin the
// epoch protocol (block mutations and RTL-edit hooks move it, rollback
// winds it back), the PreservedAnalyses commit filtering, the
// snapshot/restore path the JUMPS step-6 rollback uses, and the metrics
// and spans that make the savings auditable. The cached pipeline's byte
// identity with the always-recompute mode is part of the reference
// differential (ReferencePipelineTest.cpp).
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cfg/AnalysisManager.h"
#include "driver/Compiler.h"
#include "obs/Trace.h"
#include "opt/Pipeline.h"

#include <gtest/gtest.h>

#include <string>

using namespace coderep;
using namespace coderep::bench;
using namespace coderep::cfg;
using namespace coderep::driver;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

/// A two-block function with a conditional loop, enough for every analysis
/// to have something to say.
std::unique_ptr<Function> makeLoopFunction() {
  auto F = std::make_unique<Function>("t");
  int R = FirstVirtual;
  for (int I = 0; I < 4; ++I)
    F->freshVReg();
  int LHead = F->freshLabel();
  BasicBlock *Entry = F->appendBlock();
  Entry->Insns.push_back(
      Insn::move(Operand::reg(R), Operand::imm(10)));
  BasicBlock *Head = F->appendBlockWithLabel(LHead);
  Head->Insns.push_back(Insn::binary(Opcode::Sub, Operand::reg(R),
                                     Operand::reg(R), Operand::imm(1)));
  Head->Insns.push_back(Insn::compare(Operand::reg(R), Operand::imm(0)));
  Head->Insns.push_back(Insn::condJump(CondCode::Ne, LHead));
  BasicBlock *Exit = F->appendBlock();
  Exit->Insns.push_back(Insn::ret());
  F->verify();
  return F;
}

//===----------------------------------------------------------------------===//
// Epoch protocol
//===----------------------------------------------------------------------===//

TEST(AnalysisEpoch, MovesOnEveryMutationPath) {
  auto F = makeLoopFunction();
  uint64_t E0 = F->analysisEpoch();

  F->appendBlock();
  EXPECT_GT(F->analysisEpoch(), E0) << "appendBlock must move the epoch";

  uint64_t E1 = F->analysisEpoch();
  F->insertBlock(1);
  EXPECT_GT(F->analysisEpoch(), E1) << "insertBlock must move the epoch";

  uint64_t E2 = F->analysisEpoch();
  F->eraseBlock(1);
  EXPECT_GT(F->analysisEpoch(), E2) << "eraseBlock must move the epoch";

  uint64_t E3 = F->analysisEpoch();
  F->noteRtlEdit();
  EXPECT_GT(F->analysisEpoch(), E3) << "noteRtlEdit must move the epoch";
}

TEST(AnalysisEpoch, RestoreWindsBackwards) {
  auto F = makeLoopFunction();
  uint64_t Saved = F->analysisEpoch();
  F->noteRtlEdit();
  F->noteRtlEdit();
  EXPECT_GT(F->analysisEpoch(), Saved);
  F->restoreAnalysisEpoch(Saved);
  EXPECT_EQ(F->analysisEpoch(), Saved);
}

//===----------------------------------------------------------------------===//
// PreservedAnalyses
//===----------------------------------------------------------------------===//

TEST(PreservedAnalyses, SetAlgebra) {
  PreservedAnalyses None = PreservedAnalyses::none();
  for (int I = 0; I < NumAnalysisIDs; ++I)
    EXPECT_FALSE(None.preserved(static_cast<AnalysisID>(I)));

  PreservedAnalyses Shape = PreservedAnalyses::cfgShape();
  EXPECT_TRUE(Shape.preserved(AnalysisID::FlatCfg));
  EXPECT_TRUE(Shape.preserved(AnalysisID::Dominators));
  EXPECT_TRUE(Shape.preserved(AnalysisID::Loops));
  EXPECT_FALSE(Shape.preserved(AnalysisID::Liveness))
      << "cfgShape drops dataflow";

  PreservedAnalyses P =
      PreservedAnalyses::none().preserve(AnalysisID::Liveness);
  EXPECT_TRUE(P.preserved(AnalysisID::Liveness));
}

//===----------------------------------------------------------------------===//
// Manager caching and commit filtering
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerUnit, RepeatQueriesHitUntilTheEpochMoves) {
  auto F = makeLoopFunction();
  AnalysisManager AM(*F);

  // One cold loops() query builds the whole shape chain once.
  AM.loops();
  AnalysisCounters A = AM.counters();
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::FlatCfg)], 1);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Dominators)], 1);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Loops)], 1);

  AM.loops();
  AM.dominators();
  AM.flatCfg();
  AM.liveness();
  AM.liveness();
  A = AM.counters();
  EXPECT_EQ(A.Hits[static_cast<int>(AnalysisID::Loops)], 1);
  EXPECT_EQ(A.Hits[static_cast<int>(AnalysisID::Dominators)], 1);
  // The cold shape chain itself re-queries flatCfg() internally, so the
  // flat-CFG hit count only has a lower bound.
  EXPECT_GE(A.Hits[static_cast<int>(AnalysisID::FlatCfg)], 1);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::FlatCfg)], 1);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Liveness)], 1);
  EXPECT_EQ(A.Hits[static_cast<int>(AnalysisID::Liveness)], 1);

  // The epoch moves: everything recomputes on next query.
  F->noteRtlEdit();
  AM.loops();
  AM.liveness();
  A = AM.counters();
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Loops)], 2);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Liveness)], 2);
}

TEST(AnalysisManagerUnit, DisabledManagerAlwaysRecomputes) {
  auto F = makeLoopFunction();
  AnalysisManager AM(*F, /*CacheEnabled=*/false);
  AM.loops();
  AM.loops();
  AM.liveness();
  AM.liveness();
  AnalysisCounters A = AM.counters();
  EXPECT_EQ(A.Hits[static_cast<int>(AnalysisID::Loops)], 0);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Loops)], 2);
  EXPECT_EQ(A.Hits[static_cast<int>(AnalysisID::Liveness)], 0);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Liveness)], 2);
}

TEST(AnalysisManagerUnit, CommitKeepsExactlyThePreservedSet) {
  auto F = makeLoopFunction();
  AnalysisManager AM(*F);
  AM.loops();
  AM.liveness();

  // An in-place edit burst that keeps the flow graph: the cfgShape commit
  // must keep the shape trio (restamped) and drop only liveness.
  uint64_t Before = F->analysisEpoch();
  F->block(0)->Insns.insert(
      F->block(0)->Insns.begin(),
      Insn::move(Operand::reg(FirstVirtual + 1), Operand::imm(0)));
  AM.commit(Before, PreservedAnalyses::cfgShape());
  EXPECT_GT(F->analysisEpoch(), Before)
      << "commit must move the epoch for in-place-only edits";

  AM.loops();
  AM.liveness();
  AnalysisCounters A = AM.counters();
  EXPECT_EQ(A.Hits[static_cast<int>(AnalysisID::Loops)], 1)
      << "preserved loop info must survive the commit";
  EXPECT_EQ(A.Invalidations[static_cast<int>(AnalysisID::Liveness)], 1);
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Liveness)], 2)
      << "dropped liveness must recompute";

  // A none() commit drops the shape trio too.
  Before = F->analysisEpoch();
  F->noteRtlEdit();
  AM.commit(Before, PreservedAnalyses::none());
  AM.loops();
  A = AM.counters();
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Loops)], 2);
  EXPECT_GE(A.Invalidations[static_cast<int>(AnalysisID::Loops)], 1);
}

TEST(AnalysisManagerUnit, CommitRespectsTheBeforeEpochInterval) {
  auto F = makeLoopFunction();
  AnalysisManager AM(*F);
  AM.loops(); // stamped at E0
  uint64_t E0 = F->analysisEpoch();

  // The entry predates Before: even a preserving commit must drop it,
  // because it was computed before edits the committing pass never saw.
  F->noteRtlEdit();
  uint64_t Before = F->analysisEpoch();
  EXPECT_GT(Before, E0);
  F->noteRtlEdit();
  AM.commit(Before, PreservedAnalyses::cfgShape());
  AM.loops();
  AnalysisCounters A = AM.counters();
  EXPECT_EQ(A.Recomputes[static_cast<int>(AnalysisID::Loops)], 2)
      << "stale entry from before the pass started must not be restamped";
}

//===----------------------------------------------------------------------===//
// Snapshot / restore (the JUMPS step-6 rollback path)
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerUnit, RestoreReinstatesEntriesAndEpoch) {
  auto F = makeLoopFunction();
  AnalysisManager AM(*F);
  AM.loops();
  AnalysisManager::Snapshot Snap = AM.snapshot();
  const int LP = static_cast<int>(AnalysisID::Loops);
  const int64_t HitsBefore = AM.counters().Hits[LP];

  // A speculative splice: insert a block, query (replacing the cached
  // entries), then roll the bytes back and restore the snapshot.
  F->insertBlock(1);
  AM.loops();
  F->eraseBlock(1);
  AM.restore(Snap);

  EXPECT_EQ(F->analysisEpoch(), Snap.Epoch);
  AM.loops();
  EXPECT_EQ(AM.counters().Hits[LP], HitsBefore + 1)
      << "the query after restore must be a hit";
}

TEST(AnalysisManagerUnit, RestoreCoversLivenessAndDropsLaterEntries) {
  auto F = makeLoopFunction();
  AnalysisManager AM(*F);
  const int LV = static_cast<int>(AnalysisID::Liveness);
  AM.liveness(); // computed before the snapshot
  AnalysisManager::Snapshot Snap = AM.snapshot();

  // The attempt recomputes liveness on the edited function, replacing the
  // slot, and is then rolled back byte for byte.
  F->insertBlock(1);
  AM.liveness();
  F->eraseBlock(1);
  const int64_t InvalidationsBefore = AM.counters().Invalidations[LV];
  AM.restore(Snap);
  EXPECT_EQ(AM.counters().Invalidations[LV], InvalidationsBefore + 1)
      << "the entry computed after the snapshot must be dropped";

  AM.liveness();
  AnalysisCounters A = AM.counters();
  EXPECT_EQ(A.Hits[LV], 1)
      << "the entry computed before the snapshot must serve after restore";
  EXPECT_EQ(A.Recomputes[LV], 2);
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

TEST(AnalysisManagerObs, MetricsMirrorTheStatsCounters) {
  obs::TraceSink Sink;
  PipelineOptions Opts;
  Opts.Trace.Sink = &Sink;
  Compilation C = compile(suite().front().Source, target::TargetKind::Sparc,
                          OptLevel::Jumps, &Opts);
  ASSERT_TRUE(C.ok());
  const AnalysisCounters &A = C.Pipeline.Analysis;
  for (int I = 0; I < NumAnalysisIDs; ++I) {
    const std::string Name = analysisName(static_cast<AnalysisID>(I));
    EXPECT_EQ(Sink.metrics().value("analysis." + Name + ".hits"), A.Hits[I])
        << Name;
    EXPECT_EQ(Sink.metrics().value("analysis." + Name + ".recomputes"),
              A.Recomputes[I])
        << Name;
    EXPECT_EQ(Sink.metrics().value("analysis." + Name + ".invalidations"),
              A.Invalidations[I])
        << Name;
  }
  EXPECT_GT(A.totalHits(), 0);
}

// A slow compile is explained by its spans only if every recompute has
// one: the replication passes, the shape chain's inner queries and the
// liveness build all recompute through the same manager slot.
TEST(AnalysisManagerObs, EveryRecomputeHasItsSpan) {
  for (const BenchProgram &BP : suite())
    for (target::TargetKind TK :
         {target::TargetKind::Sparc, target::TargetKind::M68}) {
      obs::TraceSink Sink;
      PipelineOptions Opts;
      Opts.Trace.Sink = &Sink;
      Compilation C = compile(BP.Source, TK, OptLevel::Jumps, &Opts);
      ASSERT_TRUE(C.ok()) << C.Error;
      const std::vector<obs::TraceEvent> Events = Sink.events();
      for (int I = 0; I < NumAnalysisIDs; ++I) {
        const std::string Name = analysisName(static_cast<AnalysisID>(I));
        const std::string Span = "analysis: " + Name;
        int64_t Begins = 0;
        for (const obs::TraceEvent &E : Events)
          Begins += E.Phase == obs::EventPhase::Begin && E.Name == Span;
        EXPECT_EQ(Begins, Sink.metrics().value("analysis." + Name +
                                               ".recomputes"))
            << BP.Name << "/" << target::targetName(TK) << ": " << Name;
      }
    }
}

} // namespace
