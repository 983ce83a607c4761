//===- BranchChain.cpp - Branch chaining -------------------------------------===//
//
// Retargets transfers that reach a block doing nothing but jumping onward,
// the first optimization of the paper's Figure 3. Replaces the classic
// "jump to jump" sequences created by naive code generation.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "cfg/CfgAnalysis.h"

#include <set>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

/// Follows chains of trivial jump blocks from \p Label to the final label.
static int chaseLabel(const Function &F, int Label) {
  std::set<int> Seen;
  while (true) {
    if (!Seen.insert(Label).second)
      return Label; // cycle of empty jumps (infinite loop): leave alone
    int Idx = F.indexOfLabel(Label);
    if (Idx < 0)
      return Label;
    const BasicBlock *B = F.block(Idx);
    if (B->Insns.size() != 1 || B->Insns.front().Op != Opcode::Jump)
      return Label;
    Label = B->Insns.front().Target;
  }
}

PassResult opt::runBranchChaining(Function &F) {
  bool Changed = false;
  for (int I = 0; I < F.size(); ++I) {
    BasicBlock *B = F.block(I);
    auto T = B->terminator();
    if (!T)
      continue;
    switch (T->Op) {
    case Opcode::Jump:
    case Opcode::CondJump: {
      int NewTarget = chaseLabel(F, T->Target);
      if (NewTarget != T->Target) {
        T->Target = NewTarget;
        Changed = true;
      }
      break;
    }
    case Opcode::SwitchJump:
      for (int &Label : T->Table) {
        int NewTarget = chaseLabel(F, Label);
        if (NewTarget != Label) {
          Label = NewTarget;
          Changed = true;
        }
      }
      break;
    default:
      break;
    }
    // A conditional branch to the fall-through block is a no-op.
    T = B->terminator();
    if (T && T->Op == Opcode::CondJump && I + 1 < F.size() &&
        T->Target == F.block(I + 1)->Label) {
      B->Insns.pop_back();
      Changed = true;
    }
    // A jump to the positionally next block is a fall-through.
    if (B->endsWithJump() && I + 1 < F.size() &&
        B->Insns.back().Target == F.block(I + 1)->Label) {
      B->Insns.pop_back();
      Changed = true;
    }
  }

  // Conditional branch over a lone jump: "if c goto X; goto Y; X:"
  // becomes "if !c goto Y; X:" when nothing else enters the jump block.
  for (int I = 0; I + 2 < F.size(); ++I) {
    BasicBlock *B = F.block(I);
    auto T = B->terminator();
    if (!T || T->Op != Opcode::CondJump)
      continue;
    BasicBlock *JumpBlock = F.block(I + 1);
    if (JumpBlock->Insns.size() != 1 || !JumpBlock->endsWithJump())
      continue;
    if (T->Target != F.block(I + 2)->Label)
      continue;
    // The jump block must be reached only by the fall-through edge.
    bool HasBranchPred = false;
    for (int J = 0; J < F.size() && !HasBranchPred; ++J) {
      auto U = F.block(J)->terminator();
      if (!U)
        continue;
      if ((U->Op == Opcode::Jump || U->Op == Opcode::CondJump) &&
          U->Target == JumpBlock->Label)
        HasBranchPred = true;
      if (U->Op == Opcode::SwitchJump)
        for (int Label : U->Table)
          if (Label == JumpBlock->Label)
            HasBranchPred = true;
    }
    if (HasBranchPred)
      continue;
    T->Cond = rtl::negate(T->Cond);
    T->Target = JumpBlock->Insns.back().Target;
    F.eraseBlock(I + 1);
    Changed = true;
  }
  // Retargeted edges and erased blocks rewrite the flow graph itself, so
  // a change invalidates every shape and dataflow result.
  return {Changed, PreservedAnalyses::none()};
}

PassResult opt::runUnreachableElim(Function &F) {
  // Erasing blocks restructures the block list (same argument as above).
  return {removeUnreachableBlocks(F) > 0, PreservedAnalyses::none()};
}
