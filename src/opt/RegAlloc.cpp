//===- RegAlloc.cpp - Register allocation by graph coloring --------------------===//
//
// Chaitin-style coloring of virtual registers onto the target's
// allocatable register set ("register allocation by register coloring" in
// Figure 3). Move-related nodes get no interference edge, so copies whose
// ends receive the same color vanish. Uncolorable nodes are spilled to
// fresh frame slots and the allocation is retried; spill temporaries have
// ranges of one instruction, so the retry converges.
//
// Calls do not constrain allocation: like the SPARC's register windows,
// every function invocation owns a private register file (see
// ease/Interp.h), so no caller-save discipline is required. The prologue's
// frame adjustment is patched when spilling grows the frame.
//
//===----------------------------------------------------------------------===//

#include "cfg/Liveness.h"
#include "opt/Pass.h"
#include "support/Check.h"

#include <algorithm>
#include <map>
#include <set>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

struct Node {
  int Reg;
  std::set<int> Neighbors;
  int UseCount = 0;
};

/// Builds the interference graph over virtual registers.
std::map<int, Node> buildInterference(Function &F, const Liveness &LV) {
  const RegUniverse &U = LV.universe();
  std::map<int, Node> Graph;

  auto node = [&](int R) -> Node & {
    auto [It, New] = Graph.try_emplace(R);
    if (New)
      It->second.Reg = R;
    return It->second;
  };

  std::vector<int> Used;
  for (int B = 0; B < F.size(); ++B) {
    BasicBlock *Block = F.block(B);
    // Walk backwards maintaining the live set.
    BitVec Live = LV.liveOut(B);
    for (int I = static_cast<int>(Block->Insns.size()) - 1; I >= 0; --I) {
      auto X = Block->Insns[I];
      int D = X.definedReg();
      if (isVirtualReg(D)) {
        node(D);
        // A copy does not interfere with its source.
        int CopySrc =
            X.Op == Opcode::Move && X.Src1.isReg() ? X.Src1.Base : -1;
        for (size_t S = 64; S < U.size(); ++S) {
          int R = U.reg(S);
          if (R != D && R != CopySrc && Live.test(S)) {
            node(D).Neighbors.insert(R);
            node(R).Neighbors.insert(D);
          }
        }
      }
      if (D >= 0)
        Live.reset(U.slot(D));
      Used.clear();
      X.appendUsedRegs(Used);
      for (int R : Used) {
        Live.set(U.slot(R));
        if (isVirtualReg(R))
          ++node(R).UseCount;
      }
    }
  }
  return Graph;
}

/// Rewrites every access to \p Reg through a frame slot at FP+Offset.
void spillRegister(Function &F, int Reg, int Offset) {
  Operand Slot = Operand::mem(RegFP, Offset, 4);
  for (int B = 0; B < F.size(); ++B) {
    BasicBlock *Block = F.block(B);
    for (size_t I = 0; I < Block->Insns.size(); ++I) {
      auto X = Block->Insns[I];
      std::vector<int> Used;
      X.appendUsedRegs(Used);
      bool UsesReg = std::find(Used.begin(), Used.end(), Reg) != Used.end();
      bool DefsReg = X.definedReg() == Reg;
      if (!UsesReg && !DefsReg)
        continue;
      if (UsesReg) {
        int T = F.freshVReg();
        X.renameUses(Reg, T);
        Block->Insns.insert(Block->Insns.begin() + I,
                            Insn::move(Operand::reg(T), Slot));
        ++I; // X moved one position down
      }
      // Re-take the reference: the insert may have reallocated.
      auto Y = Block->Insns[I];
      if (DefsReg) {
        int T = F.freshVReg();
        Y.renameDef(Reg, T);
        Block->Insns.insert(Block->Insns.begin() + I + 1,
                            Insn::move(Slot, Operand::reg(T)));
        ++I;
      }
    }
  }
}

/// Patches the prologue "SP = SP - frame" once spilling grew the frame.
void patchFrameSize(Function &F) {
  BasicBlock *Entry = F.block(0);
  for (auto I : Entry->Insns)
    if (I.Op == Opcode::Sub && I.Dst.isRegNo(RegSP) && I.Src1.isRegNo(RegSP) &&
        I.Src2.isImm()) {
      I.Src2 = Operand::imm(F.FrameBytes);
      return;
    }
  CODEREP_CHECK(F.FrameBytes == 0, "prologue frame adjustment not found");
}

} // namespace

PassResult opt::runRegisterAllocation(Function &F, const target::Target &T,
                                      AnalysisManager &AM) {
  int K = T.numAllocatableRegs();
  bool Changed = false;

  for (int Attempt = 0;; ++Attempt) {
    CODEREP_CHECK(Attempt < 64, "register allocation failed to converge");
    std::map<int, Node> Graph = buildInterference(F, AM.liveness());
    if (Graph.empty())
      break;

    // Simplify: push nodes with degree < K; if stuck, pick a spill
    // candidate optimistically (Briggs) and push it anyway.
    std::map<int, std::set<int>> Work;
    for (auto &[R, N] : Graph)
      Work[R] = N.Neighbors;
    std::vector<int> Stack;
    std::set<int> InWork;
    for (auto &[R, N] : Work)
      InWork.insert(R);
    while (!InWork.empty()) {
      int Pick = -1;
      for (int R : InWork)
        if (static_cast<int>(Work[R].size()) < K) {
          Pick = R;
          break;
        }
      if (Pick < 0) {
        // Spill heuristic: high degree, few uses.
        double Best = -1;
        for (int R : InWork) {
          double Score = static_cast<double>(Work[R].size()) /
                         (1.0 + Graph[R].UseCount);
          if (Score > Best) {
            Best = Score;
            Pick = R;
          }
        }
      }
      Stack.push_back(Pick);
      InWork.erase(Pick);
      for (int N : Work[Pick])
        Work[N].erase(Pick);
    }

    // Select colors in reverse push order.
    std::map<int, int> Color;
    std::vector<int> Spilled;
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
      int R = *It;
      std::set<int> Taken;
      for (int N : Graph[R].Neighbors) {
        auto CIt = Color.find(N);
        if (CIt != Color.end())
          Taken.insert(CIt->second);
      }
      int C = -1;
      for (int I = 0; I < K; ++I)
        if (!Taken.count(I)) {
          C = I;
          break;
        }
      if (C < 0)
        Spilled.push_back(R);
      else
        Color[R] = C;
    }

    if (Spilled.empty()) {
      // Rewrite virtual registers to physical ones and drop self-moves.
      for (int B = 0; B < F.size(); ++B) {
        BasicBlock *Block = F.block(B);
        for (size_t I = 0; I < Block->Insns.size();) {
          auto X = Block->Insns[I];
          for (auto &[R, C] : Color) {
            X.renameUses(R, FirstAllocatable + C);
            X.renameDef(R, FirstAllocatable + C);
          }
          if (X.Op == Opcode::Move && X.Dst.isReg() && X.Src1.isReg() &&
              X.Dst.Base == X.Src1.Base) {
            Block->Insns.erase(Block->Insns.begin() + I);
            continue;
          }
          ++I;
        }
      }
      Changed = true;
      break;
    }

    for (int R : Spilled) {
      F.FrameBytes += 4;
      spillRegister(F, R, -F.FrameBytes);
    }
    patchFrameSize(F);
    // Spill code is inserted inside existing blocks: the flow graph holds,
    // but liveness must be rebuilt before the retry's interference graph.
    AM.noteEdit(PreservedAnalyses::cfgShape());
    Changed = true;
  }
  // Coloring renames registers and deletes self-moves in place, and spill
  // bursts already committed their effect above: no transfer or block is
  // touched.
  return {Changed, PreservedAnalyses::cfgShape()};
}
