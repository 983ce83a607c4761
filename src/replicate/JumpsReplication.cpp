//===- JumpsReplication.cpp - The JUMPS algorithm ------------------------------===//
//
// Implementation of the paper's Section 4. See Replication.h for the
// step-by-step summary. The unit of work is one unconditional jump: its
// replacement sequence is planned from the shortest-path matrix, copied
// with fresh labels, spliced into the positional order directly after the
// jump's block, and validated; a replication that would make the flow
// graph non-reducible is rolled back and the alternative sequence tried.
//
//===----------------------------------------------------------------------===//

#include "replicate/Replication.h"

#include "cfg/CfgAnalysis.h"
#include "cfg/FunctionPrinter.h"
#include "obs/ScopedTimer.h"
#include "replicate/ShortestPaths.h"
#include "support/Check.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::replicate;
using namespace coderep::rtl;

namespace {

/// Everything needed to emit one copied block, captured before any splicing
/// shifts positional indices. The RTLs are recorded as arena refs into the
/// *original* blocks - stable across the splice - so planning copies no
/// instruction bytes; applyPlan clones the refs slot-by-slot.
struct CopySpec {
  int OrigLabel = -1;
  std::vector<InsnRef> Insns;
  /// Label of the positional successor when the original can fall through
  /// (plain fall-through or the false side of a conditional branch).
  int FallLabel = -1;
};

/// A planned replication: the block sequence to copy, in copy order.
struct Plan {
  std::vector<CopySpec> Specs;
  std::vector<int> OrigIndices; ///< original positional indices, per spec
  int64_t TotalRtls = 0;
  bool FavorLoops = false; ///< sequence must link up with FNextLabel
  int FNextLabel = -1;
  int LoopsCompleted = 0;
};

/// Exact record of one applied plan's mutations, for step-6 rollback. All
/// RTLs allocated by an attempt sit above one arena watermark, so rolling
/// back is a truncation plus the two structural reversals the watermark
/// cannot see (re-attaching the detached jump ref and reverting step-5
/// retargets); no instruction bytes are copied either way.
struct UndoLog {
  rtl::InsnRef Jump = rtl::InvalidInsnRef; ///< detached, not copied
  int InsertAt = 0;   ///< position of the first spliced-in copy
  int InsertedCount = 0;
  /// (block label, previous branch target) for every step-5 retarget.
  std::vector<std::pair<int, int>> Retargets;
  rtl::InsnArena::Watermark Mark; ///< arena frontier before the attempt
};

class JumpsPass {
public:
  JumpsPass(Function &F, const ReplicationOptions &O, ReplicationStats &S,
            AnalysisManager &AM)
      : F(F), O(O), S(S), AM(AM) {}

  bool run();

private:
  Function &F;
  const ReplicationOptions &O;
  ReplicationStats &S;
  AnalysisManager &AM; ///< loop analyses, shared with the optimizer

  /// (block label, target label) pairs proven non-replicable.
  std::set<std::pair<int, int>> Skip;
  int64_t GrowthBudget = 0;
  int Round = 0; ///< 1-based round counter, carried into decision records

  /// The round-scoped shortest-path matrix (step 1). It is computed once
  /// per round and *not* recomputed after each replication, exactly as the
  /// paper describes; because replications splice in new blocks, matrix
  /// entries are translated through stable block labels and every
  /// reconstructed path is re-validated against the current flow graph.
  std::unique_ptr<ShortestPaths> RoundSP;
  std::vector<int> RoundLabels;             ///< old index -> label
  std::map<int, int> RoundLabelToOld;       ///< label -> old index

  /// Loop structure of the current flow graph. The replication planner
  /// consults it for every candidate (step 3); rebuilding it per jump made
  /// LoopInfo construction the hottest part of a round, so it is queried
  /// from the shared manager once per round and refreshed only after a
  /// successful mutation. The shared handle pins the result: applyPlan
  /// re-queries the manager mid-attempt (replacing the slot), and the
  /// planner's reference must survive that.
  std::shared_ptr<const LoopInfo> RoundLI;

  bool runRound();
  bool tryJumpAt(int BIdx);
  std::vector<int> translatePath(const std::vector<int> &OldPath);
  bool buildPlan(const std::vector<int> &Path, int BIdx, bool FavorLoops,
                 const LoopInfo &LI, Plan &Out);
  bool applyPlan(int BIdx, const Plan &P, UndoLog &U);
  void undo(const UndoLog &U);
};

bool JumpsPass::run() {
  int64_t Baseline =
      O.GrowthBaselineRtls > 0 ? O.GrowthBaselineRtls : F.rtlCount();
  // Saturate in double before the cast: a huge or infinite factor means an
  // unlimited budget, and one that is not positive (NaN included) means
  // none, so no factor can overflow the conversion.
  const double Budget = O.MaxGrowthFactor *
                        static_cast<double>(std::max<int64_t>(Baseline, 64));
  if (!(Budget > 0))
    GrowthBudget = 0;
  else if (Budget >= static_cast<double>(INT64_MAX))
    GrowthBudget = INT64_MAX;
  else
    GrowthBudget = static_cast<int64_t>(Budget);
  if (F.rtlCount() >= GrowthBudget)
    return false;
  bool Changed = false;
  // "The algorithm JUMPS is applied to a function for each unconditional
  // jump until no more unconditional jumps can be replaced."
  while (S.JumpsReplaced < O.MaxReplacements && runRound())
    Changed = true;
  if (Changed)
    removeUnreachableBlocks(F);
  return Changed;
}

bool JumpsPass::runRound() {
  ++Round;
  obs::ScopedTimer RoundSpan(
      O.Trace.Sink, "replication round", nullptr,
      O.Trace.eventsActive()
          ? format("\"function\": \"%s\", \"round\": %d",
                   obs::escapeJson(F.Name).c_str(), Round)
          : std::string());
  // Step 1 once per round: a fresh lazy matrix over the current graph.
  {
    obs::ScopedTimer Span(O.Trace.Sink, "shortest paths");
    RoundSP = std::make_unique<ShortestPaths>(
        F, ShortestPaths::Strategy::Lazy, O.Trace.Sink);
  }
  RoundLabels.clear();
  RoundLabelToOld.clear();
  for (int B = 0; B < F.size(); ++B) {
    RoundLabels.push_back(F.block(B)->Label);
    RoundLabelToOld[F.block(B)->Label] = B;
  }
  RoundLI = AM.loopsShared();
  bool Changed = false;
  // Pre-rewrite snapshot for the validator; refreshed after every applied
  // rewrite (step-6 rollbacks restore F exactly, so failures keep it live).
  std::unique_ptr<Function> PreRewrite;
  if (O.Validator)
    PreRewrite = F.clone();
  for (int B = 0; B < F.size() && S.JumpsReplaced < O.MaxReplacements; ++B) {
    if (!F.block(B)->endsWithJump())
      continue;
    if (tryJumpAt(B)) {
      Changed = true;
      if (O.Validator) {
        O.Validator->checkApplied(*PreRewrite, F, "JUMPS", Round);
        PreRewrite = F.clone();
      }
      // The flow graph changed; the loop structure must be recomputed
      // before the next candidate is planned. (The shortest-path matrix
      // intentionally stays stale for the rest of the round, as in the
      // paper; see RoundSP.)
      RoundLI = AM.loopsShared();
    }
  }
  return Changed;
}

/// Sums the RTLs of a path's blocks.
static int64_t pathRtls(const Function &F, const std::vector<int> &Path) {
  int64_t N = 0;
  for (int B : Path)
    N += F.block(B)->rtlCount();
  return N;
}

/// Maps an old-index path onto current indices via labels, and checks that
/// every step is still an edge of the flow graph (replications performed
/// earlier in the round may have retargeted branches). Returns empty when
/// invalid.
std::vector<int> JumpsPass::translatePath(const std::vector<int> &OldPath) {
  std::vector<int> Out;
  Out.reserve(OldPath.size());
  for (int Old : OldPath) {
    int Idx = F.indexOfLabel(RoundLabels[Old]);
    if (Idx < 0)
      return {};
    Out.push_back(Idx);
  }
  for (size_t I = 0; I + 1 < Out.size(); ++I) {
    bool EdgeOk = false;
    F.forEachSuccessor(Out[I], [&](int Succ) { EdgeOk |= Succ == Out[I + 1]; });
    if (!EdgeOk)
      return {};
  }
  return Out;
}

bool JumpsPass::tryJumpAt(int BIdx) {
  BasicBlock *B = F.block(BIdx);
  int TargetLabel = B->Insns.back().Target;
  if (Skip.count({B->Label, TargetLabel}))
    return false;
  int TIdx = F.indexOfLabel(TargetLabel);
  CODEREP_CHECK(TIdx >= 0, "jump to unknown label");

  // The structured decision record; built and recorded only when event
  // recording is active. Decisions are per-candidate timeline records (the
  // inspect_replication feed), so like spans they obey the events switch:
  // the muted always-on configuration keeps only the aggregate counters.
  obs::TraceSink *Sink = O.Trace.eventsActive() ? O.Trace.Sink : nullptr;
  obs::ReplicationDecision D;
  bool IdReserved = false;
  if (Sink) {
    D.Function = F.Name;
    D.Round = Round;
    D.JumpLabel = B->Label;
    D.TargetLabel = TargetLabel;
  }
  // The id is reserved lazily at first use (the DOT dumper needs it before
  // the record is stored), so decisions that bail out unrecorded - a
  // target block created earlier this same round - leave no id gap.
  auto decisionId = [&]() {
    if (Sink && !IdReserved) {
      D.Id = Sink->reserveDecisionId();
      IdReserved = true;
    }
    return D.Id;
  };
  auto record = [&](obs::DecisionOutcome Outcome) {
    if (!Sink)
      return;
    decisionId();
    D.Outcome = Outcome;
    Sink->recordDecision(D);
  };

  if (TIdx == BIdx) {
    record(obs::DecisionOutcome::SelfLoop);
    return false; // self loop: an infinite loop offers no replacement
  }
  if (TIdx == BIdx + 1) {
    B->Insns.pop_back(); // jump to next is a plain fall-through
    F.noteRtlEdit();     // an RTL vanished: move the analysis epoch
    record(obs::DecisionOutcome::FallThrough);
    return true;
  }

  // Translate target and fall-through block into round (matrix) indices;
  // blocks created during this round wait for the next round's matrix.
  auto OldT = RoundLabelToOld.find(TargetLabel);
  if (OldT == RoundLabelToOld.end())
    return false;

  // Step 2: the two candidate sequences.
  const LoopInfo &LI = *RoundLI;
  std::vector<int> ReturnPath =
      translatePath(RoundSP->cheapestReturnPath(OldT->second));
  // A return path must still end in a return block.
  if (!ReturnPath.empty()) {
    auto Term = F.block(ReturnPath.back())->terminator();
    if (!Term || Term->Op != Opcode::Return)
      ReturnPath.clear();
  }
  // Section 6 extension: a sequence may also end at an indirect jump.
  std::vector<int> IndirectPath;
  if (O.AllowIndirectEndings) {
    IndirectPath = translatePath(RoundSP->cheapestIndirectPath(OldT->second));
    if (!IndirectPath.empty()) {
      auto Term = F.block(IndirectPath.back())->terminator();
      if (!Term || Term->Op != Opcode::SwitchJump)
        IndirectPath.clear();
    }
    if (!IndirectPath.empty() && IndirectPath.front() != TIdx)
      IndirectPath.clear();
  }

  std::vector<int> LoopPath;
  if (BIdx + 1 < F.size()) {
    auto OldNext = RoundLabelToOld.find(F.block(BIdx + 1)->Label);
    if (OldNext != RoundLabelToOld.end()) {
      LoopPath = translatePath(RoundSP->path(OldT->second, OldNext->second));
      // The final block must still have an edge to the fall-through block.
      if (!LoopPath.empty()) {
        bool EdgeOk = false;
        F.forEachSuccessor(LoopPath.back(),
                           [&](int Succ) { EdgeOk |= Succ == BIdx + 1; });
        if (!EdgeOk)
          LoopPath.clear();
      }
      // The path must start at the current target.
      if (!LoopPath.empty() && LoopPath.front() != TIdx)
        LoopPath.clear();
    }
  }
  if (!ReturnPath.empty() && ReturnPath.front() != TIdx)
    ReturnPath.clear();

  struct Candidate {
    std::vector<int> Path;
    bool FavorLoops;
    int64_t Cost;
    obs::CandidateKind Kind;
  };
  std::vector<Candidate> Candidates;
  if (!ReturnPath.empty())
    Candidates.push_back({ReturnPath, false, pathRtls(F, ReturnPath),
                          obs::CandidateKind::Return});
  if (!LoopPath.empty())
    Candidates.push_back(
        {LoopPath, true, pathRtls(F, LoopPath), obs::CandidateKind::Loop});
  if (!IndirectPath.empty())
    Candidates.push_back({IndirectPath, false, pathRtls(F, IndirectPath),
                          obs::CandidateKind::Indirect});
  // Order the attempts by the step-2 heuristic; later candidates are the
  // fallbacks step 6 retries with.
  std::stable_sort(Candidates.begin(), Candidates.end(),
                   [&](const Candidate &A, const Candidate &B) {
                     switch (O.Heuristic) {
                     case PathChoice::Shortest:
                       return A.Cost < B.Cost;
                     case PathChoice::FavorReturns:
                       return !A.FavorLoops && B.FavorLoops;
                     case PathChoice::FavorLoops:
                       return A.FavorLoops && !B.FavorLoops;
                     }
                     return false;
                   });

  if (Sink)
    for (const Candidate &C : Candidates) {
      obs::DecisionCandidate DC;
      DC.Kind = C.Kind;
      DC.CostRtls = C.Cost;
      for (int Idx : C.Path)
        DC.PathLabels.push_back(F.block(Idx)->Label);
      D.Candidates.push_back(std::move(DC));
    }
  auto setFate = [&](size_t I, obs::CandidateFate Fate) {
    if (Sink)
      D.Candidates[I].Fate = Fate;
  };

  // Captured lazily before the first splice attempt so an applied decision
  // can dump the pre-replication flow graph keyed to its record id.
  std::string BeforeDot;

  for (size_t CI = 0; CI < Candidates.size(); ++CI) {
    const Candidate &C = Candidates[CI];
    Plan P;
    if (!buildPlan(C.Path, BIdx, C.FavorLoops, LI, P)) {
      setFate(CI, obs::CandidateFate::PlanFailed);
      continue;
    }
    if (O.MaxSequenceRtls >= 0 && P.TotalRtls > O.MaxSequenceRtls) {
      ++S.SkippedLengthCap;
      setFate(CI, obs::CandidateFate::LengthCap);
      continue;
    }
    if (P.TotalRtls > GrowthBudget - F.rtlCount()) {
      ++S.SkippedGrowthBudget;
      setFate(CI, obs::CandidateFate::GrowthBudget);
      continue;
    }

    if (!O.Trace.CfgDotDir.empty() && BeforeDot.empty())
      BeforeDot = cfg::toDot(
          F, format("%s before decision %llu", F.Name.c_str(),
                    static_cast<unsigned long long>(decisionId())));

    // Step 6: apply on the real function, validate, roll back on failure.
    // applyPlan mutates nothing when it returns false, and on success its
    // undo log reverses the splice exactly (only the fresh-label counter
    // stays advanced, which no decision observes).
    int RetargetsBefore = S.Step5Retargets;
    int StubsBefore = S.StubJumpsAdded;
    UndoLog U;
    // The splice is speculative: every RTL the attempt allocates lands
    // above one arena watermark (append-only mode), and the analysis
    // manager is imaged (every slot and the epoch), so a step-6 rollback
    // truncates the arena and restores the pre-attempt analyses instead of
    // copying RTLs back.
    rtl::InsnArena &A = F.arena();
    A.beginSpeculation();
    U.Mark = A.watermark();
    AnalysisManager::Snapshot Snap = AM.snapshot();
    if (!applyPlan(BIdx, P, U)) {
      A.rollback(U.Mark);
      setFate(CI, obs::CandidateFate::PlanFailed);
      continue;
    }
    F.verify();
    if (!isReducible(F)) {
      undo(U);
      AM.restore(Snap);
      ++S.RolledBackIrreducible;
      setFate(CI, obs::CandidateFate::RolledBackIrreducible);
      continue;
    }
    A.commitSpeculation();
    A.free(U.Jump); // the replaced jump's slot is dead for good
    ++S.JumpsReplaced;
    S.LoopsCompleted += P.LoopsCompleted;
    if (Sink) {
      setFate(CI, obs::CandidateFate::Applied);
      D.Chosen = static_cast<int>(CI);
      D.LoopsCompleted = P.LoopsCompleted;
      D.Step5Retargets = S.Step5Retargets - RetargetsBefore;
      D.StubJumps = S.StubJumpsAdded - StubsBefore;
      D.ReplicatedRtls = P.TotalRtls;
    }
    if (!O.Trace.CfgDotDir.empty()) {
      std::string Stem =
          format("%s/%s_d%llu", O.Trace.CfgDotDir.c_str(), F.Name.c_str(),
                 static_cast<unsigned long long>(decisionId()));
      obs::TraceSink::writeFile(Stem + "_before.dot", BeforeDot);
      obs::TraceSink::writeFile(
          Stem + "_after.dot",
          cfg::toDot(F, format("%s after decision %llu", F.Name.c_str(),
                               static_cast<unsigned long long>(D.Id))));
    }
    record(obs::DecisionOutcome::Replaced);
    return true;
  }
  // Only blocks whose matrix data was current count as proven failures;
  // paths invalidated by earlier replications this round retry next round.
  if (!ReturnPath.empty() || !LoopPath.empty() || !IndirectPath.empty())
    Skip.insert({B->Label, TargetLabel});
  ++S.SkippedNoCandidate;
  record(Candidates.empty() ? obs::DecisionOutcome::NoCandidate
                            : obs::DecisionOutcome::AllFailed);
  return false;
}

bool JumpsPass::buildPlan(const std::vector<int> &Path, int BIdx,
                          bool FavorLoops, const LoopInfo &LI, Plan &Out) {
  Out.FavorLoops = FavorLoops;
  if (FavorLoops)
    Out.FNextLabel = F.block(BIdx + 1)->Label;

  std::vector<int> Order;
  std::set<int> Included;
  int Prev = BIdx; // "the block collected previously"; initially the source
  for (int PathBlock : Path) {
    if (Included.count(PathBlock)) {
      Prev = PathBlock;
      continue; // already pulled in by a loop completion
    }
    // Step 3: entering a natural loop through its header from outside
    // pulls the entire loop in, in positional order - rotated so the
    // header comes first. Control enters the copies at the first one, so
    // it must be the header; for a bottom-test loop the header is
    // positionally last and blind positional order would fall into the
    // body, executing one iteration unconditionally.
    const NaturalLoop *L = LI.loopWithHeader(PathBlock);
    if (L && !L->contains(Prev)) {
      size_t HeaderPos = 0;
      for (size_t Q = 0; Q < L->Blocks.size(); ++Q)
        if (L->Blocks[Q] == L->Header)
          HeaderPos = Q;
      for (size_t Q = 0; Q < L->Blocks.size(); ++Q) {
        int Block = L->Blocks[(HeaderPos + Q) % L->Blocks.size()];
        Order.push_back(Block);
        Included.insert(Block);
      }
      ++Out.LoopsCompleted;
      Prev = PathBlock;
      continue;
    }
    Order.push_back(PathBlock);
    Included.insert(PathBlock);
    Prev = PathBlock;
  }

  for (int Idx : Order) {
    const BasicBlock *Blk = F.block(Idx);
    CopySpec Spec;
    Spec.OrigLabel = Blk->Label;
    Spec.Insns = Blk->Insns.refs();
    if (!Blk->endsWithUnconditionalTransfer()) {
      if (Idx + 1 >= F.size())
        return false; // malformed; cannot happen on verified functions
      Spec.FallLabel = F.block(Idx + 1)->Label;
    }
    Out.Specs.push_back(std::move(Spec));
    Out.OrigIndices.push_back(Idx);
    Out.TotalRtls += Blk->rtlCount();
  }
  return !Out.Specs.empty();
}

bool JumpsPass::applyPlan(int BIdx, const Plan &P, UndoLog &U) {
  const size_t K = P.Specs.size();
  // Control falls from the jump's block into the first copy: it must be a
  // copy of the jump's target.
  CODEREP_CHECK(P.Specs[0].OrigLabel == F.block(BIdx)->Insns.back().Target,
                "replication plan does not start at the jump target");

  // Fresh labels for every copy.
  std::vector<int> CopyLabel(K);
  for (size_t I = 0; I < K; ++I)
    CopyLabel[I] = F.freshLabel();

  // Step 4/5 label mapping: a reference from copy position \p From to
  // original label \p Label goes to the nearest *forward* copy of that
  // block, then to a backward copy, then to the original.
  auto mapLabel = [&](int Label, int From) {
    int Backward = -1;
    for (size_t J = 0; J < K; ++J) {
      if (P.Specs[J].OrigLabel != Label)
        continue;
      if (static_cast<int>(J) > From)
        return CopyLabel[J];
      Backward = CopyLabel[J];
    }
    return Backward >= 0 ? Backward : Label;
  };

  // Emit the copies (plus stub jump blocks where a copy cannot fall
  // through to its intended next block).
  rtl::InsnArena &A = F.arena();
  std::vector<std::unique_ptr<BasicBlock>> NewBlocks;
  for (size_t I = 0; I < K; ++I) {
    const CopySpec &Spec = P.Specs[I];
    auto C = std::make_unique<BasicBlock>(CopyLabel[I], A);
    for (InsnRef R : Spec.Insns)
      C->Insns.attachBack(A.clone(R));

    // The original label of whatever must come next for fall-through.
    int NextOrigLabel = -1;
    if (I + 1 < K)
      NextOrigLabel = P.Specs[I + 1].OrigLabel;
    else if (P.FavorLoops)
      NextOrigLabel = P.FNextLabel;

    auto T = C->terminator();
    int StubTarget = -1; // original label needing an explicit jump
    if (!T) {
      // Original fell through to Spec.FallLabel.
      if (Spec.FallLabel != NextOrigLabel)
        StubTarget = Spec.FallLabel;
    } else {
      switch (T->Op) {
      case Opcode::Jump:
        if (T->Target == NextOrigLabel)
          C->Insns.pop_back(); // becomes the fall-through to the next copy
        else
          T->Target = mapLabel(T->Target, static_cast<int>(I));
        break;
      case Opcode::CondJump:
        if (Spec.FallLabel == NextOrigLabel) {
          T->Target = mapLabel(T->Target, static_cast<int>(I));
        } else if (T->Target == NextOrigLabel) {
          // Reverse the branch so the copy falls through along the path
          // (step 4: "a conditional branch is reversed in the replicated
          // path if the path does not follow the fall-through").
          T->Cond = negate(T->Cond);
          T->Target = mapLabel(Spec.FallLabel, static_cast<int>(I));
        } else {
          T->Target = mapLabel(T->Target, static_cast<int>(I));
          StubTarget = Spec.FallLabel;
        }
        break;
      case Opcode::Return:
        break;
      case Opcode::SwitchJump:
        // Only reachable through step-3 loop completion; remap the table.
        for (int &Label : T->Table)
          Label = mapLabel(Label, static_cast<int>(I));
        break;
      default:
        CODEREP_UNREACHABLE("unexpected terminator in replication plan");
      }
    }
    NewBlocks.push_back(std::move(C));
    if (StubTarget >= 0) {
      auto Stub = std::make_unique<BasicBlock>(F.freshLabel(), A);
      Stub->Insns.push_back(
          Insn::jump(mapLabel(StubTarget, static_cast<int>(I))));
      NewBlocks.push_back(std::move(Stub));
      ++S.StubJumpsAdded;
    }
  }

  // The final copy must not fall off the end of the sequence.
  {
    BasicBlock *Last = NewBlocks.back().get();
    if (!Last->endsWithUnconditionalTransfer()) {
      bool FallsToFNext = false;
      const CopySpec &LastSpec = P.Specs.back();
      if (P.FavorLoops) {
        auto T = Last->terminator();
        if (!T)
          FallsToFNext = LastSpec.FallLabel == P.FNextLabel;
        else // reversed or kept conditional branch falls through
          FallsToFNext = true;
      }
      if (!FallsToFNext)
        return false; // defensive; the stub logic should prevent this
    }
  }

  // Splice: remove the jump, insert the copies right after its block.
  // Everything from here on is recorded in the undo log.
  BasicBlock *B = F.block(BIdx);
  CODEREP_CHECK(B->endsWithJump(), "plan applied to a non-jump block");
  U.Jump = B->Insns.detachBack();
  int InsertAt = BIdx + 1;
  U.InsertAt = InsertAt;
  U.InsertedCount = static_cast<int>(NewBlocks.size());
  for (size_t I = 0; I < NewBlocks.size(); ++I)
    F.insertBlock(InsertAt + static_cast<int>(I), std::move(NewBlocks[I]));

  // Step 5: when replication started inside a loop and copied part of it,
  // conditional branches of the uncopied loop blocks that lead into the
  // copied part are redirected to the copies, avoiding partially
  // overlapping loops (Figure 2).
  // The splice bumped the epoch, so this query builds (and caches) loop
  // info for the just-spliced graph.
  const LoopInfo &LIBefore = AM.loops();
  std::set<int> CopiedLabels;
  for (const CopySpec &Spec : P.Specs)
    CopiedLabels.insert(Spec.OrigLabel);
  const NaturalLoop *BLoop = LIBefore.innermostLoopContaining(BIdx);
  bool Retargeted = false;
  if (BLoop) {
    for (int X : BLoop->Blocks) {
      BasicBlock *XB = F.block(X);
      if (CopiedLabels.count(XB->Label))
        continue;
      auto T = XB->terminator();
      if (!T || T->Op != Opcode::CondJump)
        continue;
      if (CopiedLabels.count(T->Target)) {
        int Mapped = mapLabel(T->Target, -1);
        if (Mapped != T->Target) {
          U.Retargets.push_back({XB->Label, T->Target});
          T->Target = Mapped;
          ++S.Step5Retargets;
          Retargeted = true;
        }
      }
    }
  }
  // Retargets rewrite branch targets in place, changing edges after the
  // loop info above was computed: move the epoch so nothing serves it.
  if (Retargeted)
    F.noteRtlEdit();
  return true;
}

void JumpsPass::undo(const UndoLog &U) {
  // Undo-log traffic as named metrics: how often step 6 pays for a
  // speculative splice, and how much it erases when it does.
  if (obs::TraceSink *Sink = O.Trace.Sink) {
    Sink->metrics().add("replicate.undo.invocations", 1);
    Sink->metrics().add("replicate.undo.blocks_erased", U.InsertedCount);
    Sink->metrics().add("replicate.undo.retargets_reverted",
                        static_cast<int64_t>(U.Retargets.size()));
  }
  // Reverse step-5 retargets. The labels are of uncopied blocks, which the
  // erase below does not move out of existence, but resolving them before
  // the erase keeps the lazy label cache warm for at most one rebuild.
  for (auto [Label, OldTarget] : U.Retargets) {
    int Idx = F.indexOfLabel(Label);
    CODEREP_CHECK(Idx >= 0, "retargeted block vanished during rollback");
    auto T = F.block(Idx)->terminator();
    CODEREP_CHECK(T && T->Op == Opcode::CondJump,
                  "retargeted terminator changed during rollback");
    T->Target = OldTarget;
  }
  // Erasing the copies frees their refs; the watermark truncation below
  // then drops those slots (and every pool span and free-list entry the
  // attempt created) in one step-6 rollback.
  for (int I = 0; I < U.InsertedCount; ++I)
    F.eraseBlock(U.InsertAt);
  F.block(U.InsertAt - 1)->Insns.attachBack(U.Jump);
  F.arena().rollback(U.Mark);
}

} // namespace

bool replicate::runJumps(Function &F, const ReplicationOptions &Options,
                         ReplicationStats *Stats, AnalysisManager *Analyses) {
  ReplicationStats Local;
  // Without a caller-provided manager, fall back to a disabled local one:
  // every query recomputes, exactly the standalone behavior.
  AnalysisManager LocalAM(F, /*CacheEnabled=*/false);
  JumpsPass Pass(F, Options, Stats ? *Stats : Local,
                 Analyses ? *Analyses : LocalAM);
  return Pass.run();
}
