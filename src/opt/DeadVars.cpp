//===- DeadVars.cpp - Dead variable elimination --------------------------------===//
//
// Deletes assignments whose target register is not live afterwards. After
// CSE's copy/constant propagation this is what actually removes the
// now-redundant initial assignments of §3.3.2, and it cleans up comparisons
// whose conditional branch was folded away.
//
//===----------------------------------------------------------------------===//

#include "opt/Liveness.h"
#include "opt/Pass.h"

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

PassResult opt::runDeadVariableElim(Function &F, AnalysisManager &AM) {
  // Deletions only remove uses, so the liveness computed up front stays a
  // sound over-approximation for the whole walk.
  const Liveness &LV = AM.liveness();
  const RegUniverse &U = LV.universe();
  bool Changed = false;
  std::vector<int> Used;
  for (int B = 0; B < F.size(); ++B) {
    BasicBlock *Block = F.block(B);
    BitVec Live = LV.liveOut(B);
    // The delay slot executes last.
    if (Block->DelaySlot) {
      const Insn &S = *Block->DelaySlot;
      int D = S.definedReg();
      if (D >= 0)
        Live.reset(U.slot(D));
      Used.clear();
      S.appendUsedRegs(Used);
      for (int R : Used)
        Live.set(U.slot(R));
    }
    for (int I = static_cast<int>(Block->Insns.size()) - 1; I >= 0; --I) {
      auto X = Block->Insns[I];
      int D = X.definedReg();
      bool Dead = D >= 0 && !Live.test(U.slot(D)) && !X.hasSideEffects();
      if (Dead) {
        Block->Insns.erase(Block->Insns.begin() + I);
        Changed = true;
        continue;
      }
      if (D >= 0)
        Live.reset(U.slot(D));
      Used.clear();
      X.appendUsedRegs(Used);
      for (int R : Used)
        Live.set(U.slot(R));
    }
  }
  // Deletes side-effect-free register assignments only - never a
  // transfer, a block, or an edge - so every shape analysis stays valid;
  // register uses changed, so liveness does not.
  return {Changed, PreservedAnalyses::cfgShape()};
}
