//===- CodeMotion.cpp - Loop-invariant code motion -----------------------------===//
//
// Hoists loop-invariant RTLs into loop preheaders, creating the preheader
// blocks on demand. Preheader placement interacts with replication exactly
// as §3.3.3 describes: a preheader naturally lands after the conditional
// branch that skips the loop, so when the branch is taken the preheader is
// not executed; and when creating a preheader forces an explicit jump
// (because an in-loop block fell through into the header), that jump is
// grist for the next replication round of Figure 3.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgAnalysis.h"
#include "cfg/Liveness.h"
#include "opt/Pass.h"
#include "support/Check.h"

#include <map>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

/// Retargets every explicit branch to \p OldLabel (outside the index set
/// \p Skip) to \p NewLabel.
void retargetBranches(Function &F, int OldLabel, int NewLabel,
                      const NaturalLoop &Loop, int SkipIdx) {
  for (int B = 0; B < F.size(); ++B) {
    if (B == SkipIdx || Loop.contains(B))
      continue;
    auto T = F.block(B)->terminator();
    if (!T)
      continue;
    if ((T->Op == Opcode::Jump || T->Op == Opcode::CondJump) &&
        T->Target == OldLabel)
      T->Target = NewLabel;
    if (T->Op == Opcode::SwitchJump)
      for (int &L : T->Table)
        if (L == OldLabel)
          L = NewLabel;
  }
}

/// Returns the index of a usable preheader for \p Loop, or -1. A usable
/// preheader is the positionally preceding block when it is outside the
/// loop and its only successor is the header.
int findPreheader(Function &F, const NaturalLoop &Loop) {
  int H = Loop.Header;
  if (H == 0)
    return -1;
  int P = H - 1;
  if (Loop.contains(P))
    return -1;
  std::vector<int> Succs = F.successors(P);
  if (Succs.size() != 1 || Succs[0] != H)
    return -1;
  // Every other predecessor of the header must be inside the loop (back
  // edges); otherwise hoisted code would not dominate the loop.
  std::vector<std::vector<int>> Preds = F.predecessors();
  for (int Q : Preds[H])
    if (Q != P && !Loop.contains(Q))
      return -1;
  return P;
}

/// Creates a preheader for \p Loop. Invalidates all analyses and block
/// indices; the caller must restart.
void createPreheader(Function &F, AnalysisManager &AM,
                     const NaturalLoop &Loop) {
  int H = Loop.Header;
  int HLabel = F.block(H)->Label;
  // An in-loop block falling through into the header must jump explicitly
  // so the preheader can be wedged in between.
  if (H > 0 && Loop.contains(H - 1) &&
      !F.block(H - 1)->endsWithUnconditionalTransfer()) {
    BasicBlock *Pred = F.block(H - 1);
    if (!Pred->terminator()) {
      Pred->Insns.push_back(Insn::jump(HLabel));
    } else {
      // Conditional fall-through: split with a stub jump block.
      F.insertBlock(H);
      F.block(H)->Insns.push_back(Insn::jump(HLabel));
      H = H + 1;
    }
  }
  F.insertBlock(H); // falls through to the header
  int NewLabel = F.block(H)->Label;
  // Out-of-loop branches into the loop now enter through the preheader.
  // Recompute loop membership (indices shifted) so back-edge branches keep
  // targeting the header itself. The insertBlock above moved the epoch,
  // so this is a fresh build; \p Loop stays alive because the caller
  // pins its LoopInfo with a shared handle.
  const LoopInfo &LI = AM.loops();
  const NaturalLoop *Fresh = nullptr;
  for (const NaturalLoop &L : LI.loops())
    if (F.block(L.Header)->Label == HLabel)
      Fresh = &L;
  CODEREP_CHECK(Fresh, "loop vanished while creating its preheader");
  retargetBranches(F, HLabel, NewLabel, *Fresh, H);
}

/// What one burst attempt did.
enum class HoistStep {
  None,      ///< nothing left to hoist anywhere
  Hoisted,   ///< one RTL moved into an existing preheader
  Preheader, ///< a preheader was created; block indices shifted
};

/// One hoisting burst over the whole function: performs plain hoists (into
/// existing preheaders) until none remains or a preheader must be created,
/// then returns so the caller can restart with fresh analyses.
///
/// All decisions inside the burst reuse the loop/dominator/liveness
/// results pinned at entry. Loop info and dominators survive a plain
/// hoist outright (the flow graph is untouched). Liveness is stale after
/// one, but every decision it feeds is unaffected: the only liveness
/// query is liveIn(header) of the candidate's own single-def register D,
/// and a plain hoist moves a side-effect-free RTL defining some OTHER
/// single-def register D' (D' != D, else DefCount[D] != 1) whose uses all
/// have zero in-loop definitions (so none of them is any candidate's D
/// either). Neither D's defs nor D's uses move, so liveIn(header, D) is
/// the same in the stale and the recomputed result, and the burst takes
/// byte-identical decisions to the restart-per-hoist driver it replaced
/// (differentially tested against the suite goldens and random programs).
HoistStep hoistBurst(Function &F, AnalysisManager &AM) {
  // Pin loops and dominators: createPreheader re-queries loop info
  // mid-attempt, which replaces the cache entries these refer to.
  std::shared_ptr<const LoopInfo> LIHandle = AM.loopsShared();
  std::shared_ptr<const Dominators> DomHandle = AM.dominatorsShared();
  std::shared_ptr<const Liveness> LVHandle = AM.livenessShared();
  const LoopInfo &LI = *LIHandle;
  const Dominators &Dom = *DomHandle;
  const Liveness &LV = *LVHandle;
  const RegUniverse &U = LV.universe();
  HoistStep Did = HoistStep::None;

  // Restart the scan from the first loop after every hoist: removing a
  // definition from a loop can make RTLs scanned earlier invariant.
restart:
  for (const NaturalLoop &Loop : LI.loops()) {
    // Gather loop-wide facts. DefCount is a dense array over register
    // numbers (vregs are the interesting entries; the few physical
    // registers sit below FirstVirtual).
    bool LoopWritesMem = false;
    std::vector<int> DefCount(
        std::max(F.vregLimit(), static_cast<int>(FirstVirtual)), 0);
    for (int B : Loop.Blocks)
      for (auto I : F.block(B)->Insns) {
        if (I.writesMem() || I.Op == Opcode::Call)
          LoopWritesMem = true;
        int D = I.definedReg();
        if (D >= 0)
          ++DefCount[D];
      }
    std::vector<int> ExitSources;
    for (int B : Loop.Blocks)
      for (int S : F.successors(B))
        if (!Loop.contains(S)) {
          ExitSources.push_back(B);
          break;
        }

    auto dominatesExits = [&](int B) {
      for (int E : ExitSources)
        if (!Dom.dominates(B, E))
          return false;
      return true;
    };

    std::vector<int> Used;
    for (int B : Loop.Blocks) {
      BasicBlock *Block = F.block(B);
      for (size_t I = 0; I < Block->Insns.size(); ++I) {
        auto X = Block->Insns[I];
        if (X.hasSideEffects() || X.isTransfer() ||
            X.Op == Opcode::Compare || X.Op == Opcode::Call ||
            X.Op == Opcode::Nop)
          continue;
        int D = X.definedReg();
        if (!isVirtualReg(D) || DefCount[D] != 1)
          continue;
        if (X.readsMem() && LoopWritesMem)
          continue;
        // Operand invariance: no used register is defined in the loop.
        Used.clear();
        X.appendUsedRegs(Used);
        bool Invariant = true;
        for (int R : Used)
          if (DefCount[R] > 0) {
            Invariant = false;
            break;
          }
        if (!Invariant)
          continue;
        // The value must be set on every iteration path and not be used
        // before being set.
        if (LV.liveIn(Loop.Header).test(U.slot(D)))
          continue;
        if (!dominatesExits(B))
          continue;
        // In a loop without exits "dominates all exits" is vacuous, so a
        // division there could be speculated into a fresh fault. Keep it.
        if ((X.Op == Opcode::Div || X.Op == Opcode::Rem) &&
            ExitSources.empty())
          continue;

        // Find or create the preheader.
        int P = findPreheader(F, Loop);
        if (P < 0) {
          createPreheader(F, AM, Loop);
          // Structure changed (blocks inserted, branches retargeted):
          // nothing survives; the caller restarts with fresh analyses.
          AM.noteEdit(PreservedAnalyses::none());
          return HoistStep::Preheader;
        }
        BasicBlock *Pre = F.block(P);
        Insn Hoisted = X;
        Block->Insns.erase(Block->Insns.begin() + I);
        if (Pre->terminator())
          Pre->Insns.insert(Pre->Insns.end() - 1, Hoisted);
        else
          Pre->Insns.push_back(Hoisted);
        // A plain hoist moves one non-transfer RTL between existing
        // blocks: the flow graph is untouched, so loop info and
        // dominators stay valid; liveness is stale for everyone else
        // (noteEdit drops it) but sound for this burst, per above.
        AM.noteEdit(PreservedAnalyses::cfgShape());
        Did = HoistStep::Hoisted;
        goto restart;
      }
    }
  }
  return Did;
}

} // namespace

PassResult opt::runCodeMotion(Function &F, AnalysisManager &AM) {
  bool Changed = false;
  int Guard = 0;
  while (hoistBurst(F, AM) != HoistStep::None) {
    Changed = true;
    if (Guard++ >= 10000)
      break;
  }
  // Every edit burst already committed its own effect mid-run (see
  // hoistBurst), so at return all surviving entries were computed after
  // the last change; claiming the shape set restamps exactly those.
  return {Changed, PreservedAnalyses::cfgShape()};
}
