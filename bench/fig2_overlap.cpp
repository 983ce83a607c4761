//===- fig2_overlap.cpp - Reproduces Figure 2 ------------------------------------===//
//
// "Partial Overlapping of Natural Loops": an unconditional back jump from
// block 3 to block 1. Replicating block 1 naively would leave block 2's
// conditional branch pointing at the original block 1, creating two
// partially overlapping loops; JUMPS step 5 retargets that branch to the
// copy. The harness builds the figure's CFG, replicates, and checks that
// the result is reducible with properly nested loops.
//
//===----------------------------------------------------------------------===//

#include "cfg/CfgAnalysis.h"
#include "cfg/FunctionPrinter.h"
#include "replicate/Replication.h"
#include "support/FlagTable.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::rtl;

namespace {

/// Figure 2's CFG:
///   1 (loop header) -> 2 (fall), exit to 4 (branch)
///   2 -> 1 (cond branch back), falls to 3
///   3 -> 1 (the unconditional back jump to replicate)
///   4: return.
std::unique_ptr<Function> buildFigure2() {
  auto F = std::make_unique<Function>("fig2");
  int L[5];
  for (int I = 1; I <= 4; ++I)
    L[I] = F->freshLabel();
  auto add = [&](int Label, std::vector<Insn> Insns) {
    BasicBlock *B = F->appendBlockWithLabel(Label);
    B->Insns = std::move(Insns);
  };
  Operand R0 = Operand::reg(rtl::FirstVirtual);
  add(L[1], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(1)),
             Insn::compare(R0, Operand::imm(50)),
             Insn::condJump(CondCode::Ge, L[4])});
  add(L[2], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(2)),
             Insn::compare(R0, Operand::imm(10)),
             Insn::condJump(CondCode::Lt, L[1])});
  add(L[3], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(3)),
             Insn::jump(L[1])});
  add(L[4], {Insn::move(Operand::reg(RegRV), R0),
             Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
             Insn::ret()});
  F->verify();
  return F;
}

} // namespace

int main(int Argc, char **Argv) {
  support::FlagTable("fig2_overlap").parseOrExit(Argc, Argv);
  std::printf("Figure 2: Partial Overlapping of Natural Loops\n\n");
  auto F = buildFigure2();
  std::printf("=== before replication ===\n%s\n", toString(*F).c_str());

  replicate::ReplicationStats Stats;
  replicate::ReplicationOptions Options;
  replicate::runJumps(*F, Options, &Stats);

  std::printf("=== after JUMPS ===\n%s\n", toString(*F).c_str());
  LoopInfo LI(*F);
  std::printf("jumps replaced: %d, step-5 branch retargets: %d, rolled "
              "back (step 6): %d\n",
              Stats.JumpsReplaced, Stats.Step5Retargets,
              Stats.RolledBackIrreducible);
  std::printf("natural loops: %zu, reducible: %s\n", LI.loops().size(),
              isReducible(*F) ? "yes" : "no");
  // Properly nested check: any two loops are disjoint or nested.
  bool Nested = true;
  const auto &Loops = LI.loops();
  for (size_t A = 0; A < Loops.size(); ++A)
    for (size_t B = A + 1; B < Loops.size(); ++B) {
      int Common = 0, OnlyA = 0, OnlyB = 0;
      for (int Blk : Loops[A].Blocks)
        (Loops[B].contains(Blk) ? Common : OnlyA)++;
      for (int Blk : Loops[B].Blocks)
        if (!Loops[A].contains(Blk))
          ++OnlyB;
      if (Common && OnlyA && OnlyB)
        Nested = false;
    }
  std::printf("loops properly nested (no partial overlap): %s\n",
              Nested ? "yes" : "no");
  return 0;
}
