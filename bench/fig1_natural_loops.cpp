//===- fig1_natural_loops.cpp - Reproduces Figure 1 ------------------------------===//
//
// "Interference with Natural Loops": an unconditional jump from outside a
// loop to the loop header. Partial replication (copying only the header)
// would create a loop with two entry points; JUMPS step 3 therefore
// replicates the *entire* loop. The harness builds the figure's CFG
// directly, runs JUMPS, and reports loop-completion and reducibility.
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

/// Builds the Figure 1 CFG:
///   1 -> 2,3;  2 -> 4 (the unconditional jump);  3 -> 4(fall)
///   4 -> 5 (loop header, also exits to 7);  5 -> 6;  6 -> 4 (back edge)
///   ... 7 return.
std::unique_ptr<Function> buildFigure1() {
  auto F = std::make_unique<Function>("fig1");
  int L[8];
  for (int I = 1; I <= 7; ++I)
    L[I] = F->freshLabel();

  auto add = [&](int Label, std::vector<Insn> Insns) {
    BasicBlock *B = F->appendBlockWithLabel(Label);
    B->Insns = std::move(Insns);
  };
  Operand R0 = Operand::reg(rtl::FirstVirtual);
  // Block 1: branch to 3 or fall to 2.
  add(L[1], {Insn::compare(R0, Operand::imm(0)),
             Insn::condJump(CondCode::Ge, L[3])});
  // Block 2: ...; goto 4 (the jump to replicate).
  add(L[2], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(1)),
             Insn::jump(L[4])});
  // Block 3: falls into 4.
  add(L[3], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(2))});
  // Block 4: loop header; conditional exit to 7, falls to 5.
  add(L[4], {Insn::compare(R0, Operand::imm(100)),
             Insn::condJump(CondCode::Ge, L[7])});
  // Block 5: body.
  add(L[5], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(3))});
  // Block 6: back edge.
  add(L[6], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(5)),
             Insn::jump(L[4])});
  // Block 7: return.
  add(L[7], {Insn::move(Operand::reg(RegRV), R0),
             Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
             Insn::ret()});
  F->verify();
  return F;
}

} // namespace

int main(int Argc, char **Argv) {
  support::FlagTable("fig1_natural_loops").parseOrExit(Argc, Argv);
  std::printf("Figure 1: Interference with Natural Loops\n\n");
  auto F = buildFigure1();
  std::printf("=== before replication ===\n%s\n", toString(*F).c_str());
  LoopInfo LIBefore(*F);
  std::printf("natural loops: %zu, reducible: %s\n\n",
              LIBefore.loops().size(), isReducible(*F) ? "yes" : "no");

  replicate::ReplicationStats Stats;
  replicate::ReplicationOptions Options;
  replicate::runJumps(*F, Options, &Stats);

  std::printf("=== after JUMPS ===\n%s\n", toString(*F).c_str());
  LoopInfo LIAfter(*F);
  int Jumps = 0;
  for (int B = 0; B < F->size(); ++B)
    if (F->block(B)->endsWithJump())
      ++Jumps;
  std::printf("jumps replaced: %d, whole loops pulled into the copy "
              "(step 3): %d\n",
              Stats.JumpsReplaced, Stats.LoopsCompleted);
  std::printf("natural loops: %zu, reducible: %s, remaining jumps: %d\n",
              LIAfter.loops().size(), isReducible(*F) ? "yes" : "no", Jumps);
  return 0;
}
