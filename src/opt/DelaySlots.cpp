//===- DelaySlots.cpp - Branch delay-slot filling -------------------------------===//
//
// The final pass of Figure 3 ("filling of delay slots for RISCs"). Every
// block-terminating transfer gets one delay slot, architecturally executed
// after the transfer on both outcomes. The filler takes the nearest
// preceding RTL of the same block that is independent of the transfer (and
// of anything between), else a Nop. Replication grows basic blocks, so
// more slots become fillable - the mechanism behind the paper's "50% of the
// executed no-op instructions were eliminated".
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include "support/Check.h"

#include <algorithm>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

/// True if \p Candidate can be moved from before the instructions
/// [From..End) into the delay slot after the terminator.
static bool independent(const Insn &Candidate, const InsnSeq &Insns,
                        size_t From, size_t End) {
  if (Candidate.isTransfer() || Candidate.Op == Opcode::Call ||
      Candidate.Op == Opcode::Nop)
    return false;
  int D = Candidate.definedReg();
  // The slot executes after the branch decision: it must not feed the
  // condition codes or anything the skipped-over instructions read/write.
  if (D == RegCC)
    return false;
  std::vector<int> CandUses;
  Candidate.appendUsedRegs(CandUses);
  for (size_t I = From; I < End; ++I) {
    auto X = Insns[I];
    std::vector<int> XUses;
    X.appendUsedRegs(XUses);
    // X must not read what the candidate defines...
    if (D >= 0 && std::find(XUses.begin(), XUses.end(), D) != XUses.end())
      return false;
    // ...nor redefine what the candidate reads or defines.
    int XD = X.definedReg();
    if (XD >= 0 &&
        (XD == D || std::find(CandUses.begin(), CandUses.end(), XD) !=
                        CandUses.end()))
      return false;
    // Memory dependences: keep it simple and order all memory accesses.
    if ((Candidate.writesMem() && (X.readsMem() || X.writesMem())) ||
        (Candidate.readsMem() && X.writesMem()))
      return false;
  }
  return true;
}

PassResult opt::runDelaySlotFilling(Function &F, int *NopsOut) {
  bool Changed = false;
  int Nops = 0;
  for (int B = 0; B < F.size(); ++B) {
    BasicBlock *Block = F.block(B);
    if (Block->DelaySlot)
      continue; // already filled
    auto T = Block->terminator();
    if (!T)
      continue;
    size_t TermIdx = Block->Insns.size() - 1;
    int Found = -1;
    for (int I = static_cast<int>(TermIdx) - 1; I >= 0; --I) {
      // Candidate must also be independent of the terminator itself.
      if (independent(Block->Insns[I], Block->Insns, I + 1,
                      Block->Insns.size())) {
        Found = I;
        break;
      }
    }
    if (Found >= 0) {
      Block->DelaySlot = Block->Insns[Found];
      Block->Insns.erase(Block->Insns.begin() + Found);
    } else {
      Block->DelaySlot = Insn(Opcode::Nop);
      ++Nops;
    }
    Changed = true;
  }
  if (NopsOut)
    *NopsOut = Nops;
  // Slots are carved out of their own blocks; successors are unchanged.
  return {Changed, PreservedAnalyses::cfgShape()};
}
