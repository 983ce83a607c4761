//===- LoopsReplication.cpp - The LOOPS baseline -------------------------------===//
//
// The conventional loop-condition replication the paper measures as LOOPS:
// "unconditional jumps preceding a loop or at the end of the loop are
// replaced by the termination condition of the loop and the replicated
// condition is reversed". Two shapes are handled:
//
//  * Back jump (while layout):    H: if !c goto E; body; B: goto H;  E:
//    The "goto H" becomes a copy of H's condition with the branch reversed
//    (if c goto body), saving one jump per iteration.
//
//  * Entry jump (for layout):     P: goto T; body; T: if c goto body; E:
//    The "goto T" becomes a copy of T's condition reversed (if !c goto E),
//    saving one jump at loop entry.
//
//===----------------------------------------------------------------------===//

#include "replicate/Replication.h"

#include "cfg/CfgAnalysis.h"
#include "obs/ScopedTimer.h"
#include "support/Check.h"

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::replicate;
using namespace coderep::rtl;

namespace {

/// True if \p Test is a pure condition block: every RTL except the
/// terminating conditional branch is free of stores/calls, so copying it
/// only duplicates the evaluation of the termination condition.
bool isConditionBlock(const BasicBlock &Test) {
  auto T = Test.terminator();
  if (!T || T->Op != Opcode::CondJump)
    return false;
  for (size_t I = 0; I + 1 < Test.Insns.size(); ++I)
    if (Test.Insns[I].hasSideEffects())
      return false;
  return true;
}

/// Replaces the Jump terminating block \p BIdx with a reversed copy of the
/// condition block \p TestIdx. \p FallLabel must be the label of the block
/// positionally following \p BIdx, and must be one of the test's two
/// successors; the copied branch is arranged to branch to the *other*
/// successor and fall through to \p FallLabel.
bool replaceJumpWithReversedTest(Function &F, int BIdx, int TestIdx) {
  if (BIdx + 1 >= F.size())
    return false;
  BasicBlock *B = F.block(BIdx);
  const BasicBlock *Test = F.block(TestIdx);
  auto T = Test->Insns.back();
  int FallLabel = F.block(BIdx + 1)->Label;
  int TestFallLabel =
      TestIdx + 1 < F.size() ? F.block(TestIdx + 1)->Label : -1;

  Insn NewBranch = T;
  if (T.Target == FallLabel) {
    // The test branched to what now follows B: reverse so B falls through
    // to it and branches to the test's fall-through side.
    if (TestFallLabel < 0)
      return false;
    NewBranch.Cond = negate(T.Cond);
    NewBranch.Target = TestFallLabel;
  } else if (TestFallLabel == FallLabel) {
    // The test fell through to what now follows B: same branch works.
  } else {
    return false; // the jump's context does not line up with the test
  }

  B->Insns.pop_back();
  for (size_t I = 0; I + 1 < Test->Insns.size(); ++I)
    B->Insns.push_back(Test->Insns[I]);
  B->Insns.push_back(NewBranch);
  // The terminator changed from a jump to a conditional branch: the flow
  // graph has new edges, so move the analysis epoch.
  F.noteRtlEdit();
  return true;
}

/// One LOOPS rewrite. Returns true on change.
bool loopsOnce(Function &F, AnalysisManager &AM, ReplicationStats &S,
               const obs::TraceConfig &Trace, int Round) {
  const LoopInfo &LI = AM.loops();
  for (int B = 0; B < F.size(); ++B) {
    BasicBlock *Blk = F.block(B);
    if (!Blk->endsWithJump())
      continue;
    int Target = Blk->Insns.back().Target;
    int TIdx = F.indexOfLabel(Target);
    CODEREP_CHECK(TIdx >= 0, "jump to unknown label");
    if (TIdx == B)
      continue;
    const NaturalLoop *L = LI.innermostLoopContaining(TIdx);
    if (!L || !isConditionBlock(*F.block(TIdx)))
      continue;
    auto Test = F.block(TIdx)->Insns.back();
    int TestTargetIdx = F.indexOfLabel(Test.Target);
    bool TestExitsByBranch = !L->contains(TestTargetIdx);
    bool TestExitsByFall =
        TIdx + 1 < F.size() && !L->contains(TIdx + 1);
    if (TestExitsByBranch == TestExitsByFall)
      continue; // not a loop termination test

    bool BackJump = L->contains(B) && TIdx == L->Header;
    bool EntryJump = !L->contains(B);
    if (!BackJump && !EntryJump)
      continue;
    int JumpLabel = Blk->Label;
    int64_t TestRtls = F.block(TIdx)->rtlCount();
    if (replaceJumpWithReversedTest(F, B, TIdx)) {
      ++S.JumpsReplaced;
      // LOOPS considers exactly one candidate - the loop's termination
      // test - so its decision record has a single applied entry. Like
      // JUMPS decisions, the record obeys the events switch.
      if (obs::TraceSink *Sink =
              Trace.eventsActive() ? Trace.Sink : nullptr) {
        obs::ReplicationDecision D;
        D.Id = Sink->reserveDecisionId();
        D.Function = F.Name;
        D.Round = Round;
        D.JumpLabel = JumpLabel;
        D.TargetLabel = Target;
        obs::DecisionCandidate DC;
        DC.Kind = obs::CandidateKind::Loop;
        DC.CostRtls = TestRtls;
        DC.PathLabels = {Target};
        DC.Fate = obs::CandidateFate::Applied;
        D.Candidates.push_back(std::move(DC));
        D.Chosen = 0;
        D.Outcome = obs::DecisionOutcome::Replaced;
        D.ReplicatedRtls = TestRtls;
        Sink->recordDecision(std::move(D));
      }
      return true;
    }
  }
  return false;
}

} // namespace

// Out-of-line anchor for the validation hook's vtable.
ReplicationValidator::~ReplicationValidator() = default;

bool replicate::runLoops(Function &F, const ReplicationOptions &Options,
                         ReplicationStats *Stats, AnalysisManager *Analyses) {
  ReplicationStats Local;
  ReplicationStats &S = Stats ? *Stats : Local;
  // Without a caller-provided manager, fall back to a disabled local one:
  // every query recomputes, exactly the standalone behavior.
  AnalysisManager LocalAM(F, /*CacheEnabled=*/false);
  AnalysisManager &AM = Analyses ? *Analyses : LocalAM;
  bool Changed = false;
  for (int Round = 1;; ++Round) {
    // Under a validator each rewrite is bracketed with a pre-state clone,
    // so the validator sees exactly one rewrite per check.
    std::unique_ptr<Function> Pre = Options.Validator ? F.clone() : nullptr;
    if (!loopsOnce(F, AM, S, Options.Trace, Round))
      break;
    if (Pre)
      Options.Validator->checkApplied(*Pre, F, "LOOPS", Round);
    Changed = true;
    if (Round > 1000) // every rewrite removes a jump; this only backstops
      break;
  }
  if (Changed)
    removeUnreachableBlocks(F);
  return Changed;
}
