//===- RegPromote.cpp - Register assignment (variable promotion) ---------------===//
//
// Figure 3's "register assignment": scalar variables whose address never
// escapes move from their frame slots into virtual registers. The later
// coloring allocation maps them onto machine registers. Parameters get an
// entry load from their incoming stack slot (dead-variable elimination
// removes it for unused parameters).
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

#include <algorithm>
#include <map>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

PassResult opt::runRegisterAssignment(Function &F) {
  if (F.PromotableLocals.empty())
    return {};

  std::map<int, int> SlotToReg;
  for (int Off : F.PromotableLocals)
    SlotToReg.emplace(Off, F.freshVReg());

  bool Changed = false;
  auto rewrite = [&](Operand &O) {
    if (!O.isMem() || O.Base != RegFP || O.Index >= 0 || O.Sym >= 0 ||
        O.Size != 4)
      return;
    auto It = SlotToReg.find(static_cast<int>(O.Disp));
    if (It == SlotToReg.end())
      return;
    O = Operand::reg(It->second);
    Changed = true;
  };
  for (int B = 0; B < F.size(); ++B)
    for (auto I : F.block(B)->Insns) {
      if (I.Op == Opcode::Lea)
        continue; // address formation must keep the memory operand
      rewrite(I.Dst);
      rewrite(I.Src1);
      rewrite(I.Src2);
    }

  // Parameters live at FP+4i on entry: load them into their registers
  // right after the prologue. Reduced or synthetic functions (see
  // verify/Reduce.cpp) can have a degenerate entry block whose prologue is
  // gone, so the insertion point must never pass the terminator.
  BasicBlock *Entry = F.block(0);
  size_t InsertAt = Entry->Insns.size() >= 2 ? 2 : Entry->Insns.size();
  if (Entry->terminator())
    InsertAt = std::min(InsertAt, Entry->Insns.size() - 1);
  for (auto It = SlotToReg.rbegin(); It != SlotToReg.rend(); ++It) {
    auto [Off, Reg] = *It;
    if (Off < 0)
      continue; // locals start undefined (memory and registers both zero)
    Entry->Insns.insert(Entry->Insns.begin() + InsertAt,
                        Insn::move(Operand::reg(Reg),
                                   Operand::mem(RegFP, Off, 4)));
    Changed = true;
  }
  // Promotion is one-shot; forget the slots so reruns are no-ops.
  F.PromotableLocals.clear();
  // Promotion rewrites operands and inserts entry loads inside existing
  // blocks; no transfer or block is touched.
  return {Changed, PreservedAnalyses::cfgShape()};
}
