//===- InsnSelect.cpp - Instruction selection (RTL combining) -----------------===//
//
// VPO-style instruction selection: two RTLs connected by a register that
// dies at its single local use are symbolically combined into one RTL
// whenever the combination is again a legal instruction on the target. On
// the 68020-like target this folds loads, immediates and address
// arithmetic into ALU RTLs (producing the paper's "d[0]=d[0]/L[a[6]+n.]"
// shapes, scaled-index addressing and the two-address memory form); on the
// SPARC-like target almost nothing combines, which is why its static
// instruction counts are higher (Table 5).
//
// The analysis is deliberately block-local with a liveness check at the
// block boundary, not a whole-function single-use test: code replication
// duplicates definitions of the same virtual register into several blocks,
// and the combiner must keep working inside each copy - replication
// feeding instruction selection is one of the paper's selling points
// (§3.3.2).
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "cfg/Liveness.h"
#include "rtl/InsnOps.h"

#include <algorithm>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

/// True if \p I uses register \p R. Generic over the value type and the
/// arena views: the scan loops below call this per instruction pair, and
/// materializing an Insn (or a use vector) per query dominated the pass.
template <class InsnT> bool uses(const InsnT &I, int R) {
  return rtl::detail::usesRegOf(I, R);
}

/// Substitutes the producer's value into one use of \p R inside \p C.
/// Returns false if no substitution shape applies.
template <class ProducerT> bool substitute(Insn &C, int R, const ProducerT &P) {
  auto substIntoValueOperand = [&](Operand &O) {
    if (!O.isRegNo(R))
      return false;
    if (P.Op == Opcode::Move &&
        (P.Src1.isReg() || P.Src1.isImm() || P.Src1.isMem())) {
      O = P.Src1;
      return true;
    }
    return false;
  };

  /// The scale an index register multiplication/shift encodes, or -1.
  auto scaleOf = [](const auto &I) -> int {
    if (I.Op == Opcode::Shl && I.Src1.isReg() && I.Src2.isImm() &&
        (I.Src2.Disp == 1 || I.Src2.Disp == 2))
      return I.Src2.Disp == 1 ? 2 : 4;
    if (I.Op == Opcode::Mul && I.Src1.isReg() && I.Src2.isImm() &&
        (I.Src2.Disp == 2 || I.Src2.Disp == 4))
      return static_cast<int>(I.Src2.Disp);
    return -1;
  };

  auto substIntoAddress = [&](Operand &O) {
    if (!O.isMem())
      return false;
    if (O.Base == R) {
      if (P.Op == Opcode::Move && P.Src1.isReg()) {
        O.Base = P.Src1.Base;
        return true;
      }
      if (P.Op == Opcode::Lea) {
        const Operand &M = P.Src1;
        if (O.Index >= 0 && M.Index >= 0)
          return false; // two index registers cannot combine
        Operand New = O;
        New.Base = M.Base;
        New.Disp += M.Disp;
        if (M.Index >= 0) {
          New.Index = M.Index;
          New.Scale = M.Scale;
        }
        if (M.Sym >= 0) {
          if (New.Sym >= 0)
            return false;
          New.Sym = M.Sym;
        }
        O = New;
        return true;
      }
      if (P.Op == Opcode::Add && P.Src1.isReg() && P.Src2.isImm()) {
        O.Base = P.Src1.Base;
        O.Disp += P.Src2.Disp;
        return true;
      }
      if (P.Op == Opcode::Add && P.Src1.isReg() && P.Src2.isReg() &&
          O.Index < 0) {
        O.Base = P.Src1.Base;
        O.Index = P.Src2.Base;
        O.Scale = 1;
        return true;
      }
      return false;
    }
    if (O.Index == R) {
      if (P.Op == Opcode::Move && P.Src1.isReg()) {
        O.Index = P.Src1.Base;
        return true;
      }
      int Scale = scaleOf(P);
      if (Scale > 0 && O.Scale == 1) {
        O.Index = P.Src1.Base;
        O.Scale = Scale;
        return true;
      }
      return false;
    }
    return false;
  };

  // Producer Lea + consumer "add r, imm" combine back into a Lea, and
  // "add r, reg" absorbs the register as base/index.
  if (P.Op == Opcode::Lea && C.Op == Opcode::Add && C.Dst.isReg()) {
    Operand M = P.Src1;
    const Operand *Other = nullptr;
    if (C.Src1.isRegNo(R))
      Other = &C.Src2;
    else if (C.Src2.isRegNo(R))
      Other = &C.Src1;
    if (Other && Other->isImm()) {
      M.Disp += Other->Disp;
      C = Insn::lea(C.Dst, M);
      return true;
    }
    if (Other && Other->isReg()) {
      if (M.Base < 0) {
        M.Base = Other->Base;
        C = Insn::lea(C.Dst, M);
        return true;
      }
      if (M.Index < 0) {
        M.Index = Other->Base;
        M.Scale = 1;
        C = Insn::lea(C.Dst, M);
        return true;
      }
    }
    // fall through to the generic substitutions
  }

  if (substIntoValueOperand(C.Src1))
    return true;
  if (substIntoValueOperand(C.Src2))
    return true;
  if (substIntoAddress(C.Dst))
    return true;
  if (substIntoAddress(C.Src1))
    return true;
  if (substIntoAddress(C.Src2))
    return true;
  return false;
}

class Combiner {
public:
  Combiner(Function &F, const target::Target &T, const Liveness &LV)
      : F(F), T(T), LV(LV) {}

  bool run() {
    // Liveness is borrowed for the whole invocation. Edits only move or
    // remove uses within a block (never creating new upward exposure,
    // because the producer already used the substituted operands earlier
    // in the same block), so a stale liveness answer is conservative.
    bool Changed = false;
    bool IterChanged = true;
    int Guard = 0;
    while (IterChanged && Guard++ < 16) {
      IterChanged = false;
      for (int B = 0; B < F.size(); ++B) {
        BasicBlock *Block = F.block(B);
        for (int I = 0; I < static_cast<int>(Block->Insns.size()); ++I)
          if (tryCombineAt(*Block, I, LV.liveOut(B), LV.universe())) {
            IterChanged = true;
            Changed = true;
            --I; // the producer slot now holds the next instruction
          }
      }
    }
    return Changed;
  }

private:
  Function &F;
  const target::Target &T;
  const Liveness &LV;
  std::vector<int> Depends; // scratch, reused across tryCombineAt calls

  bool tryCombineAt(BasicBlock &Block, int PI, const BitVec &LiveOut,
                    const RegUniverse &U);
};

bool Combiner::tryCombineAt(BasicBlock &Block, int PI, const BitVec &LiveOut,
                            const RegUniverse &U) {
  auto P = Block.Insns[PI];
  int R = P.definedReg();
  if (!isVirtualReg(R))
    return false;
  // Only fold producers whose value is a pure function of its operands.
  if (P.hasSideEffects() || P.Op == Opcode::Call || P.Op == Opcode::Compare)
    return false;

  // Find the unique local consumer: the first use of R after P, with
  // nothing in between disturbing P's operands or memory.
  Depends.clear();
  P.appendUsedRegs(Depends);
  bool ReadsMem = P.readsMem();
  int CI = -1;
  for (size_t J = PI + 1; J < Block.Insns.size(); ++J) {
    auto X = Block.Insns[J];
    if (uses(X, R)) {
      CI = static_cast<int>(J);
      break;
    }
    int D = X.definedReg();
    if (D == R)
      return false; // dead before any use; dead-variable elim's job
    if (D >= 0 &&
        std::find(Depends.begin(), Depends.end(), D) != Depends.end())
      return false;
    if (ReadsMem && X.writesMem())
      return false;
  }
  if (CI < 0)
    return false;

  // R must die at the consumer: no later use in this block, and either a
  // later redefinition or not live out of the block.
  bool DeadAfter = false;
  for (size_t J = CI + 1; J < Block.Insns.size(); ++J) {
    auto X = Block.Insns[J];
    if (uses(X, R))
      return false;
    if (X.definedReg() == R) {
      DeadAfter = true;
      break;
    }
  }
  if (!DeadAfter) {
    if (Block.DelaySlot && uses(*Block.DelaySlot, R))
      return false;
    if (LiveOut.test(U.slot(R)))
      return false;
  }

  auto C = Block.Insns[CI];
  // Two-address memory form first: "M = r" after "r = M op y" becomes
  // "M = M op y" (68020 add-to-memory), provided nothing between touched
  // memory (guaranteed by the scan above when P reads M).
  if (C.Op == Opcode::Move && C.Dst.isMem() && C.Src1.isRegNo(R) &&
      P.isBinaryOp() && P.Src1.isMem() && P.Src1 == C.Dst &&
      !P.Src2.isMem()) {
    Insn Combined = Insn::binary(P.Op, C.Dst, P.Src1, P.Src2);
    if (T.isLegal(Combined)) {
      C = Combined;
      Block.Insns.erase(Block.Insns.begin() + PI);
      return true;
    }
  }
  Insn Candidate = C;
  if (!substitute(Candidate, R, P))
    return false;
  if (uses(Candidate, R))
    return false; // R appears more than once inside the consumer
  if (!T.isLegal(Candidate))
    return false;
  C = Candidate;
  Block.Insns.erase(Block.Insns.begin() + PI);
  return true;
}

} // namespace

PassResult opt::runInstructionSelection(Function &F, const target::Target &T,
                                        AnalysisManager &AM) {
  const bool Changed = Combiner(F, T, AM.liveness()).run();
  // Combining rewrites and erases RTLs inside blocks; no terminator target
  // or block is touched, so the flow graph and its derived analyses
  // survive. Liveness is dropped: combined registers die.
  return {Changed, PreservedAnalyses::cfgShape()};
}
