//===- StrengthReduce.cpp - Strength reduction ----------------------------------===//
//
// Two classic transformations from the paper's standard-optimization set:
// multiplications by powers of two become shifts, and a multiplication of a
// loop induction variable by a loop constant becomes a running sum that is
// advanced next to the induction variable's increment (covering the
// "recurrences" entry of Figure 3 as well).
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgAnalysis.h"
#include "opt/Pass.h"

#include <map>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

/// Returns k if V == 2^k (k in [1,30]), else -1.
static int log2Exact(int64_t V) {
  for (int K = 1; K <= 30; ++K)
    if (V == (int64_t(1) << K))
      return K;
  return -1;
}

/// Rewrites Mul-by-power-of-two into Shl (wrapping arithmetic makes this
/// exact for negative operands too).
static bool reduceMulToShift(Function &F) {
  bool Changed = false;
  for (int B = 0; B < F.size(); ++B)
    for (auto I : F.block(B)->Insns) {
      if (I.Op != Opcode::Mul)
        continue;
      Operand Var = I.Src1, Const = I.Src2;
      if (Var.isImm() && !Const.isImm())
        std::swap(Var, Const);
      if (!Const.isImm())
        continue;
      int K = log2Exact(Const.Disp);
      if (K < 0)
        continue;
      I = Insn::binary(Opcode::Shl, I.Dst, Var, Operand::imm(K));
      Changed = true;
    }
  return Changed;
}

namespace {

/// A basic induction variable: one in-loop definition "Reg = Reg + Step".
struct InductionVar {
  int Reg = -1;
  int64_t Step = 0;
  int Block = -1;  ///< block containing the increment
  int InsnIdx = -1;
};

} // namespace

/// Induction-variable strength reduction for one loop. Returns true on a
/// change (the driver then commits it and the next call re-queries).
static bool reduceLoopOnce(Function &F, AnalysisManager &AM) {
  const LoopInfo &LI = AM.loops();
  for (const NaturalLoop &Loop : LI.loops()) {
    // The new initialization goes into the preheader; without one, skip
    // (code motion will have created preheaders for profitable loops).
    int Pre = -1;
    {
      int H = Loop.Header;
      if (H > 0 && !Loop.contains(H - 1)) {
        std::vector<int> Succs = F.successors(H - 1);
        if (Succs.size() == 1 && Succs[0] == H) {
          std::vector<std::vector<int>> Preds = F.predecessors();
          bool Sole = true;
          for (int Q : Preds[H])
            if (Q != H - 1 && !Loop.contains(Q))
              Sole = false;
          if (Sole)
            Pre = H - 1;
        }
      }
    }
    if (Pre < 0)
      continue;

    // Count in-loop definitions and find basic induction variables.
    std::map<int, int> DefCount;
    std::vector<InductionVar> IVs;
    for (int B : Loop.Blocks)
      for (size_t I = 0; I < F.block(B)->Insns.size(); ++I) {
        auto X = F.block(B)->Insns[I];
        int D = X.definedReg();
        if (D >= 0)
          ++DefCount[D];
        if ((X.Op == Opcode::Add || X.Op == Opcode::Sub) && X.Dst.isReg() &&
            isVirtualReg(X.Dst.Base) && X.Src1.isRegNo(X.Dst.Base) &&
            X.Src2.isImm())
          IVs.push_back({X.Dst.Base,
                         X.Op == Opcode::Add ? X.Src2.Disp : -X.Src2.Disp, B,
                         static_cast<int>(I)});
      }

    for (const InductionVar &IV : IVs) {
      if (DefCount[IV.Reg] != 1)
        continue;
      // Find "t = iv * c" (or iv << c) with t single-def in the loop.
      for (int B : Loop.Blocks) {
        BasicBlock *Block = F.block(B);
        for (size_t I = 0; I < Block->Insns.size(); ++I) {
          auto X = Block->Insns[I];
          bool IsMul = X.Op == Opcode::Mul && X.Src1.isRegNo(IV.Reg) &&
                       X.Src2.isImm();
          bool IsShl = X.Op == Opcode::Shl && X.Src1.isRegNo(IV.Reg) &&
                       X.Src2.isImm() && X.Src2.Disp >= 0 && X.Src2.Disp < 31;
          if (!(IsMul || IsShl) || !X.Dst.isReg() ||
              !isVirtualReg(X.Dst.Base) || X.Dst.Base == IV.Reg)
            continue;
          if (DefCount[X.Dst.Base] != 1)
            continue;
          int64_t Factor =
              IsMul ? X.Src2.Disp : (int64_t(1) << X.Src2.Disp);

          // s = iv * c in the preheader; t = s in the loop;
          // s += step * c next to the increment.
          int S = F.freshVReg();
          BasicBlock *PreB = F.block(Pre);
          Insn Init = IsMul ? Insn::binary(Opcode::Mul, Operand::reg(S),
                                           Operand::reg(IV.Reg), X.Src2)
                            : Insn::binary(Opcode::Shl, Operand::reg(S),
                                           Operand::reg(IV.Reg), X.Src2);
          if (PreB->terminator())
            PreB->Insns.insert(PreB->Insns.end() - 1, Init);
          else
            PreB->Insns.push_back(Init);
          Operand TDst = X.Dst;
          X = Insn::move(TDst, Operand::reg(S));
          BasicBlock *IncB = F.block(IV.Block);
          // Re-locate the increment (indices may have shifted if B==IV.Block
          // and I < IV.InsnIdx; the rewrite above kept sizes equal, so the
          // recorded position is still correct).
          Insn Advance =
              Insn::binary(Opcode::Add, Operand::reg(S), Operand::reg(S),
                           Operand::imm(static_cast<int32_t>(IV.Step * Factor)));
          IncB->Insns.insert(IncB->Insns.begin() + IV.InsnIdx + 1, Advance);
          return true;
        }
      }
    }
  }
  return false;
}

PassResult opt::runStrengthReduction(Function &F, AnalysisManager &AM) {
  // Every change here rewrites or inserts plain ALU RTLs inside existing
  // blocks - no transfer, block, or edge is touched - so the shape
  // analyses survive each burst and reduceLoopOnce's loop-info query hits
  // across iterations; liveness is dropped (registers changed). The same
  // argument is the pass's claim.
  bool Changed = reduceMulToShift(F);
  if (Changed)
    AM.noteEdit(PreservedAnalyses::cfgShape());
  int Guard = 0;
  while (reduceLoopOnce(F, AM) && Guard++ < 1000) {
    Changed = true;
    AM.noteEdit(PreservedAnalyses::cfgShape());
  }
  return {Changed, PreservedAnalyses::cfgShape()};
}
