//===- FunctionPrinter.cpp - Textual dump of functions ----------------------===//

#include "cfg/FunctionPrinter.h"

#include "support/Format.h"

using namespace coderep;
using namespace coderep::cfg;

void cfg::appendText(std::string &Out, const Function &F) {
  Out += "function ";
  Out += F.Name;
  Out += " (frame ";
  appendInt(Out, F.FrameBytes);
  Out += " bytes)\n";
  for (int I = 0; I < F.size(); ++I) {
    const BasicBlock *B = F.block(I);
    Out += 'L';
    appendInt(Out, B->Label);
    Out += ":\n";
    for (rtl::ConstInsnView Insn : B->Insns) {
      Out += "    ";
      rtl::appendText(Out, Insn);
      Out += '\n';
    }
    if (B->DelaySlot) {
      Out += "    [slot] ";
      rtl::appendText(Out, *B->DelaySlot);
      Out += '\n';
    }
  }
}

std::string cfg::toString(const Function &F) {
  std::string Out;
  appendText(Out, F);
  return Out;
}

std::string cfg::toString(const Program &P) {
  std::string Out;
  for (const auto &F : P.Functions) {
    appendText(Out, *F);
    Out += '\n';
  }
  return Out;
}

std::string cfg::toDot(const Function &F, const std::string &Title) {
  std::string Out = "digraph cfg {\n";
  if (!Title.empty())
    Out += format("  label=\"%s\";\n  labelloc=top;\n", Title.c_str());
  Out += "  node [shape=box, fontname=\"monospace\"];\n";
  for (int I = 0; I < F.size(); ++I) {
    const BasicBlock *B = F.block(I);
    Out += format("  L%d [label=\"L%d\\n%d rtls\"];\n", B->Label, B->Label,
                  B->rtlCount());
  }
  for (int I = 0; I < F.size(); ++I) {
    const BasicBlock *B = F.block(I);
    auto T = B->terminator();
    // Fall-through edge (plain fall-through or a conditional's false side)
    // is dashed; explicit branch targets are solid.
    bool FallsThrough = !T || T->Op == rtl::Opcode::CondJump;
    if (FallsThrough && I + 1 < F.size())
      Out += format("  L%d -> L%d [style=dashed];\n", B->Label,
                    F.block(I + 1)->Label);
    if (!T)
      continue;
    switch (T->Op) {
    case rtl::Opcode::Jump:
    case rtl::Opcode::CondJump:
      Out += format("  L%d -> L%d;\n", B->Label, T->Target);
      break;
    case rtl::Opcode::SwitchJump:
      for (int Label : T->Table)
        Out += format("  L%d -> L%d [style=dotted];\n", B->Label, Label);
      break;
    default:
      break;
    }
  }
  Out += "}\n";
  return Out;
}
