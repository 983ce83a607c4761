//===- ConstFold.cpp - Constant folding ---------------------------------------===//
//
// Evaluates RTLs whose operands are constants, simplifies algebraic
// identities, and - most importantly for this paper - folds conditional
// branches whose comparison has constant operands into unconditional
// control flow. Code replication introduces such comparisons by
// specializing paths (§3.3.1), and the resulting jumps are in turn removed
// by the next replication round of Figure 3.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "opt/ConstEval.h"
#include "support/Check.h"

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

/// SP/FP manipulation carries the stack discipline; leave it untouched.
template <class InsnT> static bool touchesStackRegs(const InsnT &I) {
  int D = I.definedReg();
  return D == RegSP || D == RegFP;
}

/// Applies one local simplification to \p I (an Insn or an arena view;
/// view writes land directly in the SoA streams). Returns true on change.
template <class InsnT> static bool simplifyInsn(InsnT &I) {
  if (touchesStackRegs(I))
    return false;
  if (I.isBinaryOp() && I.Src1.isImm() && I.Src2.isImm()) {
    int64_t R;
    if (!evalConstBinary(I.Op, I.Src1.Disp, I.Src2.Disp, R))
      return false;
    I = Insn::move(I.Dst, Operand::imm(R));
    return true;
  }
  if (I.isUnaryOp() && I.Src1.isImm()) {
    int64_t V = static_cast<int32_t>(I.Src1.Disp);
    I = Insn::move(I.Dst,
                   Operand::imm(static_cast<int32_t>(
                       I.Op == Opcode::Neg ? -V : ~V)));
    return true;
  }
  if (!I.isBinaryOp())
    return false;

  auto isImmVal = [](const Operand &O, int64_t V) {
    return O.isImm() && O.Disp == V;
  };
  // x op identity -> move x.
  bool IdentityRhs =
      ((I.Op == Opcode::Add || I.Op == Opcode::Sub || I.Op == Opcode::Or ||
        I.Op == Opcode::Xor || I.Op == Opcode::Shl || I.Op == Opcode::Shr) &&
       isImmVal(I.Src2, 0)) ||
      ((I.Op == Opcode::Mul || I.Op == Opcode::Div) && isImmVal(I.Src2, 1));
  if (IdentityRhs) {
    I = Insn::move(I.Dst, I.Src1);
    return true;
  }
  if (I.Op == Opcode::Add && isImmVal(I.Src1, 0)) {
    I = Insn::move(I.Dst, I.Src2);
    return true;
  }
  // Annihilators: x*0, x&0, 0/x (x nonzero unknown: skip div), x%1.
  if ((I.Op == Opcode::Mul || I.Op == Opcode::And) &&
      (isImmVal(I.Src2, 0) || (I.Op == Opcode::Mul && isImmVal(I.Src1, 0)))) {
    I = Insn::move(I.Dst, Operand::imm(0));
    return true;
  }
  if (I.Op == Opcode::Rem && isImmVal(I.Src2, 1)) {
    I = Insn::move(I.Dst, Operand::imm(0));
    return true;
  }
  return false;
}

PassResult opt::runConstantFolding(Function &F) {
  bool Changed = false;
  for (int B = 0; B < F.size(); ++B) {
    BasicBlock *Block = F.block(B);
    bool CCKnown = false;
    int64_t CCValue = 0;
    for (size_t I = 0; I < Block->Insns.size(); ++I) {
      auto X = Block->Insns[I];
      Changed |= simplifyInsn(X);
      if (X.Op == Opcode::Compare) {
        CCKnown = X.Src1.isImm() && X.Src2.isImm();
        if (CCKnown)
          CCValue = static_cast<int32_t>(X.Src1.Disp) -
                    static_cast<int64_t>(static_cast<int32_t>(X.Src2.Disp));
        continue;
      }
      if (X.Op == Opcode::CondJump && CCKnown) {
        // Constant folding at a conditional branch: the branch becomes an
        // unconditional jump or disappears (§3.3.1).
        if (condHoldsFor(X.Cond, CCValue))
          X = Insn::jump(X.Target);
        else
          Block->Insns.erase(Block->Insns.begin() + I);
        Changed = true;
        break; // terminator processed; block done
      }
    }
  }
  // Folding a comparison of constants rewrites the conditional branch
  // into a jump (or deletes it), changing edges, so a change preserves no
  // shape or dataflow result. (The common all-ALU case could keep shape,
  // but the pass does not distinguish its changes.)
  return {Changed, PreservedAnalyses::none()};
}
