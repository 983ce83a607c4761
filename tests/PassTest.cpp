//===- PassTest.cpp - Individual optimization pass unit tests ---------------------===//

#include "opt/Pass.h"

#include "cfg/CfgAnalysis.h"
#include "target/Target.h"

#include <gtest/gtest.h>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// A function builder for hand-made CFGs. Allocates the requested number
/// of vregs so analyses size their universes correctly, and owns the
/// analysis manager the passes query, as the pipeline's per-function one.
struct Builder {
  std::unique_ptr<Function> F;
  AnalysisManager AM;
  explicit Builder(int VRegs = 16)
      : F(std::make_unique<Function>("t")), AM(*F) {
    for (int I = 0; I < VRegs; ++I)
      F->freshVReg();
  }
  BasicBlock *block(int Label = -1) {
    return Label < 0 ? F->appendBlock() : F->appendBlockWithLabel(Label);
  }
};

TEST(BranchChaining, CollapsesJumpToJump) {
  Builder B;
  int LMid = B.F->freshLabel(), LEnd = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns.push_back(Insn::jump(LMid));
  BasicBlock *B1 = B.block(LMid); // trivial trampoline
  B1->Insns.push_back(Insn::jump(LEnd));
  BasicBlock *B2 = B.block(LEnd);
  B2->Insns.push_back(Insn::ret());
  B.F->verify();

  EXPECT_TRUE(runBranchChaining(*B.F).Changed);
  EXPECT_EQ(B.F->block(0)->Insns.back().Target, LEnd);
  runUnreachableElim(*B.F);
  EXPECT_EQ(B.F->size(), 2);
}

TEST(BranchChaining, RemovesBranchToFallthrough) {
  Builder B;
  int LNext = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
  B0->Insns.push_back(Insn::condJump(CondCode::Eq, LNext));
  BasicBlock *B1 = B.block(LNext);
  B1->Insns.push_back(Insn::ret());
  EXPECT_TRUE(runBranchChaining(*B.F).Changed);
  EXPECT_FALSE(B.F->block(0)->terminator());
}

TEST(BranchChaining, LeavesEmptyInfiniteLoopAlone) {
  Builder B;
  int L0 = B.F->freshLabel();
  BasicBlock *B0 = B.block(L0);
  B0->Insns.push_back(Insn::jump(L0));
  EXPECT_FALSE(runBranchChaining(*B.F).Changed);
}

TEST(BranchChaining, CollapsesBranchOverJump) {
  // "if c goto X; goto Y; X:" => "if !c goto Y; X:".
  Builder B;
  int LX = B.F->freshLabel(), LY = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {Insn::compare(vr(0), Operand::imm(0)),
               Insn::condJump(CondCode::Lt, LX)};
  BasicBlock *B1 = B.block();
  B1->Insns = {Insn::jump(LY)};
  BasicBlock *B2 = B.block(LX);
  B2->Insns = {Insn::ret()};
  BasicBlock *B3 = B.block(LY);
  B3->Insns = {Insn::ret()};
  B.F->verify();
  EXPECT_TRUE(runBranchChaining(*B.F).Changed);
  B.F->verify();
  EXPECT_EQ(B.F->size(), 3);
  auto T = B.F->block(0)->Insns.back();
  EXPECT_EQ(T.Op, Opcode::CondJump);
  EXPECT_EQ(T.Cond, CondCode::Ge);
  EXPECT_EQ(T.Target, LY);
}

TEST(BranchChaining, ChasesOtherPredsThenCollapses) {
  // A second branch into the lone jump block is first retargeted past it
  // (branch chaining proper), which then frees the block for collapsing.
  Builder B;
  int LX = B.F->freshLabel(), LY = B.F->freshLabel(), LJ = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {Insn::compare(vr(0), Operand::imm(0)),
               Insn::condJump(CondCode::Lt, LX)};
  BasicBlock *B1 = B.block(LJ);
  B1->Insns = {Insn::jump(LY)};
  BasicBlock *B2 = B.block(LX);
  B2->Insns = {Insn::compare(vr(0), Operand::imm(9)),
               Insn::condJump(CondCode::Gt, LJ)};
  BasicBlock *B2b = B.block();
  B2b->Insns = {Insn::ret()};
  BasicBlock *B3 = B.block(LY);
  B3->Insns = {Insn::ret()};
  B.F->verify();
  EXPECT_TRUE(runBranchChaining(*B.F).Changed);
  B.F->verify();
  EXPECT_EQ(B.F->size(), 4);
  EXPECT_EQ(B.F->block(0)->Insns.back().Target, LY); // reversed + chased
  EXPECT_EQ(B.F->block(1)->Insns.back().Target, LY); // chased past LJ
}

TEST(BlockReorder, MakesJumpTargetFallthrough) {
  Builder B;
  int LA = B.F->freshLabel(), LB = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns.push_back(Insn::jump(LB));
  BasicBlock *B1 = B.block(LA); // only reachable via LB's chain
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = B.block(LB);
  B2->Insns.push_back(Insn::move(vr(0), Operand::imm(1)));
  B2->Insns.push_back(Insn::jump(LA));
  B.F->verify();

  EXPECT_TRUE(runBlockReorder(*B.F).Changed);
  B.F->verify();
  // Both jumps become fall-throughs: 0 -> LB -> LA.
  int Jumps = 0;
  for (int I = 0; I < B.F->size(); ++I)
    if (B.F->block(I)->endsWithJump())
      ++Jumps;
  EXPECT_EQ(Jumps, 0);
}

TEST(MergeFallthroughs, MergesSinglePredChain) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns.push_back(Insn::move(vr(0), Operand::imm(1)));
  BasicBlock *B1 = B.block();
  B1->Insns.push_back(Insn::move(vr(1), Operand::imm(2)));
  BasicBlock *B2 = B.block();
  B2->Insns.push_back(Insn::ret());
  EXPECT_TRUE(runMergeFallthroughs(*B.F).Changed);
  EXPECT_EQ(B.F->size(), 1);
  EXPECT_EQ(B.F->block(0)->Insns.size(), 3u);
}

TEST(ConstantFolding, FoldsArithmeticAndIdentities) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::binary(Opcode::Add, vr(0), Operand::imm(2), Operand::imm(3)),
      Insn::binary(Opcode::Add, vr(1), vr(9), Operand::imm(0)),
      Insn::binary(Opcode::Mul, vr(2), vr(9), Operand::imm(1)),
      Insn::binary(Opcode::Mul, vr(3), vr(9), Operand::imm(0)),
      Insn::ret(),
  };
  EXPECT_TRUE(runConstantFolding(*B.F).Changed);
  EXPECT_EQ(B0->Insns[0].Op, Opcode::Move);
  EXPECT_EQ(B0->Insns[0].Src1.Disp, 5);
  EXPECT_EQ(B0->Insns[1].Op, Opcode::Move); // v1 = v9
  EXPECT_TRUE(B0->Insns[1].Src1.isRegNo(FirstVirtual + 9));
  EXPECT_EQ(B0->Insns[2].Op, Opcode::Move); // v2 = v9
  EXPECT_EQ(B0->Insns[3].Op, Opcode::Move); // v3 = 0
  EXPECT_EQ(B0->Insns[3].Src1.Disp, 0);
}

TEST(ConstantFolding, DoesNotFoldDivisionByZero) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::binary(Opcode::Div, vr(0), Operand::imm(1), Operand::imm(0)),
      Insn::ret(),
  };
  EXPECT_FALSE(runConstantFolding(*B.F).Changed);
  EXPECT_EQ(B0->Insns[0].Op, Opcode::Div);
}

TEST(ConstantFolding, DoesNotFoldSignedDivisionOverflow) {
  // INT32_MIN / -1 and INT32_MIN % -1 trap on the machine; folding either
  // would run the host's division, which faults in the compiler instead.
  for (Opcode Op : {Opcode::Div, Opcode::Rem}) {
    Builder B;
    BasicBlock *B0 = B.block();
    B0->Insns = {
        Insn::binary(Op, vr(0), Operand::imm(INT32_MIN), Operand::imm(-1)),
        Insn::ret(),
    };
    EXPECT_FALSE(runConstantFolding(*B.F).Changed);
    EXPECT_EQ(B0->Insns[0].Op, Op);
  }
}

TEST(ConstantFolding, FoldsConstantConditionalBranchTaken) {
  Builder B;
  int LT = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::compare(Operand::imm(3), Operand::imm(5)),
      Insn::condJump(CondCode::Lt, LT),
  };
  BasicBlock *B1 = B.block();
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = B.block(LT);
  B2->Insns.push_back(Insn::ret());
  EXPECT_TRUE(runConstantFolding(*B.F).Changed);
  EXPECT_EQ(B0->Insns.back().Op, Opcode::Jump); // 3 < 5 always
  EXPECT_EQ(B0->Insns.back().Target, LT);
}

TEST(ConstantFolding, FoldsConstantConditionalBranchNotTaken) {
  Builder B;
  int LT = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::compare(Operand::imm(7), Operand::imm(5)),
      Insn::condJump(CondCode::Lt, LT),
  };
  BasicBlock *B1 = B.block();
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = B.block(LT);
  B2->Insns.push_back(Insn::ret());
  EXPECT_TRUE(runConstantFolding(*B.F).Changed);
  EXPECT_FALSE(B0->terminator()); // branch removed, falls through
}

TEST(ConstantFolding, LeavesStackAdjustmentsAlone) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::binary(Opcode::Sub, Operand::reg(RegSP), Operand::reg(RegSP),
                   Operand::imm(0)),
      Insn::ret(),
  };
  EXPECT_FALSE(runConstantFolding(*B.F).Changed);
  EXPECT_EQ(B0->Insns[0].Op, Opcode::Sub);
}

class TargetedPassTest : public ::testing::TestWithParam<target::TargetKind> {
protected:
  std::unique_ptr<target::Target> T = target::createTarget(GetParam());
};

TEST_P(TargetedPassTest, CseEliminatesRedundantLoad) {
  Builder B;
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::move(vr(0), Slot),
      Insn::move(vr(1), Slot), // redundant: same memory, no stores between
      Insn::binary(Opcode::Add, vr(2), vr(0), vr(1)),
      Insn::ret(),
  };
  EXPECT_TRUE(runLocalCse(*B.F, *T, B.AM).Changed);
  EXPECT_EQ(B0->Insns[1].Op, Opcode::Move);
  EXPECT_TRUE(B0->Insns[1].Src1.isReg()) << "second load should reuse v0";
}

TEST_P(TargetedPassTest, CseStoreToLoadForwarding) {
  Builder B;
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::move(Slot, vr(0)),
      Insn::move(vr(1), Slot), // forwarded from the store
      Insn::binary(Opcode::Add, vr(2), vr(1), vr(1)),
      Insn::ret(),
  };
  EXPECT_TRUE(runLocalCse(*B.F, *T, B.AM).Changed);
  EXPECT_TRUE(B0->Insns[1].Src1.isRegNo(FirstVirtual + 0));
}

TEST_P(TargetedPassTest, CseStoreKillsOtherMemory) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(vr(0), Operand::mem(RegFP, -4, 4)),
      Insn::move(Operand::mem(FirstVirtual + 5, 0, 4), vr(1)), // may alias
      Insn::move(vr(2), Operand::mem(RegFP, -4, 4)), // must reload
      Insn::binary(Opcode::Add, vr(3), vr(0), vr(2)),
      Insn::ret(),
  };
  runLocalCse(*B.F, *T, B.AM);
  EXPECT_TRUE(B0->Insns[2].Src1.isMem()) << "load after store must remain";
}

TEST_P(TargetedPassTest, CsePropagatesConstantsThroughOps) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(vr(0), Operand::imm(1)),
      Insn::unary(Opcode::Neg, vr(1), vr(0)), // v1 = -1, computable
      Insn::compare(vr(2), vr(1)),
      Insn::ret(),
  };
  EXPECT_TRUE(runLocalCse(*B.F, *T, B.AM).Changed);
  // The comparison's second operand becomes the immediate -1 (legal as a
  // compare operand on both targets), making v1's definition dead.
  EXPECT_TRUE(B0->Insns[2].Src2.isImm());
  EXPECT_EQ(B0->Insns[2].Src2.Disp, -1);
}

TEST_P(TargetedPassTest, CseExtendedBlockInheritance) {
  Builder B;
  // Block 0 computes v0 = fp-load; block 1 (single pred, fall-through)
  // reloads the same slot: must reuse.
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -8, 4);
  B0->Insns = {Insn::move(vr(0), Slot)};
  BasicBlock *B1 = B.block();
  B1->Insns = {
      Insn::move(vr(1), Slot),
      Insn::binary(Opcode::Add, vr(2), vr(1), vr(0)),
      Insn::ret(),
  };
  EXPECT_TRUE(runLocalCse(*B.F, *T, B.AM).Changed);
  EXPECT_TRUE(B1->Insns[0].Src1.isReg());
}

TEST_P(TargetedPassTest, CseFoldsBranchOnPropagatedConstant) {
  Builder B;
  int LT = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(vr(0), Operand::imm(4)),
      Insn::compare(vr(0), Operand::imm(9)),
      Insn::condJump(CondCode::Lt, LT),
  };
  BasicBlock *B1 = B.block();
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = B.block(LT);
  B2->Insns.push_back(Insn::ret());
  EXPECT_TRUE(runLocalCse(*B.F, *T, B.AM).Changed);
  EXPECT_EQ(B0->Insns.back().Op, Opcode::Jump);
}

TEST_P(TargetedPassTest, DeadVariableElimination) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(vr(0), Operand::imm(1)), // dead
      Insn::move(vr(1), Operand::imm(2)),
      Insn::move(Operand::reg(RegRV), vr(1)),
      Insn::compare(vr(1), Operand::imm(0)), // dead CC
      Insn::ret(),
  };
  EXPECT_TRUE(runDeadVariableElim(*B.F, B.AM).Changed);
  ASSERT_EQ(B0->Insns.size(), 3u);
  EXPECT_TRUE(B0->Insns[0].Src1.isImm());
  EXPECT_EQ(B0->Insns[0].Src1.Disp, 2);
}

TEST_P(TargetedPassTest, DeadVarKeepsStoresAndCalls) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(Operand::mem(RegFP, -4, 4), Operand::imm(1)),
      Insn::call(IntrinsicGetchar), // result unused but side-effecting
      Insn::ret(),
  };
  runDeadVariableElim(*B.F, B.AM);
  EXPECT_EQ(B0->Insns.size(), 3u);
}

TEST_P(TargetedPassTest, CodeMotionHoistsInvariant) {
  Builder B;
  int LHead = B.F->freshLabel();
  BasicBlock *Pre = B.block();
  Pre->Insns = {Insn::move(vr(0), Operand::imm(0))};
  BasicBlock *Head = B.block(LHead);
  Head->Insns = {
      Insn::binary(Opcode::Mul, vr(1), vr(9), vr(9)), // invariant
      Insn::binary(Opcode::Add, vr(0), vr(0), vr(1)),
      Insn::compare(vr(0), Operand::imm(100)),
      Insn::condJump(CondCode::Lt, LHead),
  };
  BasicBlock *Exit = B.block();
  Exit->Insns = {Insn::ret()};
  B.F->verify();

  EXPECT_TRUE(runCodeMotion(*B.F, B.AM).Changed);
  B.F->verify();
  // The multiply now sits outside the loop; the loop body no longer
  // contains a Mul.
  LoopInfo LI(*B.F);
  ASSERT_EQ(LI.loops().size(), 1u);
  for (int Idx : LI.loops()[0].Blocks)
    for (const Insn &I : B.F->block(Idx)->Insns)
      EXPECT_NE(I.Op, Opcode::Mul);
}

TEST_P(TargetedPassTest, CodeMotionLeavesVariantAlone) {
  Builder B;
  int LHead = B.F->freshLabel();
  B.block()->Insns = {Insn::move(vr(0), Operand::imm(0))};
  BasicBlock *Head = B.block(LHead);
  Head->Insns = {
      Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)),
      Insn::binary(Opcode::Mul, vr(1), vr(0), vr(0)), // depends on v0
      Insn::compare(vr(1), Operand::imm(100)),
      Insn::condJump(CondCode::Lt, LHead),
  };
  B.block()->Insns = {Insn::ret()};
  runCodeMotion(*B.F, B.AM);
  LoopInfo LI(*B.F);
  ASSERT_EQ(LI.loops().size(), 1u);
  bool MulInLoop = false;
  for (int Idx : LI.loops()[0].Blocks)
    for (const Insn &I : B.F->block(Idx)->Insns)
      if (I.Op == Opcode::Mul)
        MulInLoop = true;
  EXPECT_TRUE(MulInLoop);
}

TEST_P(TargetedPassTest, StrengthReductionMulToShift) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::binary(Opcode::Mul, vr(0), vr(1), Operand::imm(8)),
      Insn::binary(Opcode::Mul, vr(2), vr(1), Operand::imm(7)), // not 2^k
      Insn::ret(),
  };
  EXPECT_TRUE(runStrengthReduction(*B.F, B.AM).Changed);
  EXPECT_EQ(B0->Insns[0].Op, Opcode::Shl);
  EXPECT_EQ(B0->Insns[0].Src2.Disp, 3);
  EXPECT_EQ(B0->Insns[1].Op, Opcode::Mul);
}

TEST_P(TargetedPassTest, RegisterAllocationMapsAllVRegs) {
  Builder B(0);
  BasicBlock *B0 = B.block();
  B0->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  B0->Insns.push_back(Insn::binary(Opcode::Sub, Operand::reg(RegSP),
                                   Operand::reg(RegSP), Operand::imm(0)));
  // Create more simultaneously-live values than the target has registers,
  // forcing spills.
  int N = T->numAllocatableRegs() + 4;
  std::vector<int> Regs;
  for (int I = 0; I < N; ++I) {
    int R = B.F->freshVReg();
    Regs.push_back(R);
    B0->Insns.push_back(Insn::move(Operand::reg(R), Operand::imm(I)));
  }
  Operand Acc = Operand::reg(B.F->freshVReg());
  B0->Insns.push_back(Insn::move(Acc, Operand::imm(0)));
  for (int R : Regs)
    B0->Insns.push_back(
        Insn::binary(Opcode::Add, Acc, Acc, Operand::reg(R)));
  B0->Insns.push_back(Insn::move(Operand::reg(RegRV), Acc));
  B0->Insns.push_back(Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)));
  B0->Insns.push_back(Insn::ret());
  B.F->verify();

  EXPECT_TRUE(runRegisterAllocation(*B.F, *T, B.AM).Changed);
  B.F->verify();
  std::vector<int> Used;
  for (int I = 0; I < B.F->size(); ++I)
    for (const Insn &X : B.F->block(I)->Insns) {
      EXPECT_FALSE(isVirtualReg(X.definedReg()));
      Used.clear();
      X.appendUsedRegs(Used);
      for (int R : Used)
        EXPECT_FALSE(isVirtualReg(R));
    }
  EXPECT_GT(B.F->FrameBytes, 0) << "expected spills";
}

TEST_P(TargetedPassTest, RegisterAssignmentPromotesLocals) {
  Builder B(0);
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)),
      Insn::binary(Opcode::Sub, Operand::reg(RegSP), Operand::reg(RegSP),
                   Operand::imm(4)),
      Insn::move(Slot, Operand::imm(7)),
      Insn::move(Operand::reg(RegRV), Slot),
      Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
      Insn::ret(),
  };
  B.F->FrameBytes = 4;
  B.F->PromotableLocals = {-4};
  EXPECT_TRUE(runRegisterAssignment(*B.F).Changed);
  for (auto I : B0->Insns) {
    EXPECT_FALSE(I.Dst.isMem() && I.Dst.Base == RegFP);
    EXPECT_FALSE(I.Src1.isMem() && I.Src1.Base == RegFP);
  }
  // Second run is a no-op.
  EXPECT_FALSE(runRegisterAssignment(*B.F).Changed);
}

INSTANTIATE_TEST_SUITE_P(BothTargets, TargetedPassTest,
                         ::testing::Values(target::TargetKind::M68,
                                           target::TargetKind::Sparc),
                         [](const auto &Info) {
                           return Info.param == target::TargetKind::M68
                                      ? std::string("M68")
                                      : std::string("Sparc");
                         });

TEST(InstructionSelection, FoldsLoadIntoAluOnCisc) {
  auto T = target::createTarget(target::TargetKind::M68);
  Builder B;
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::move(vr(0), Slot),
      Insn::binary(Opcode::Add, vr(1), vr(9), vr(0)),
      Insn::move(Operand::reg(RegRV), vr(1)),
      Insn::ret(),
  };
  EXPECT_TRUE(runInstructionSelection(*B.F, *T, B.AM).Changed);
  // The load folded into the add: one fewer instruction.
  EXPECT_EQ(B0->Insns.size(), 3u);
  EXPECT_TRUE(B0->Insns[0].Src2.isMem());
}

TEST(InstructionSelection, DoesNotFoldLoadOnRisc) {
  auto T = target::createTarget(target::TargetKind::Sparc);
  Builder B;
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::move(vr(0), Slot),
      Insn::binary(Opcode::Add, vr(1), vr(9), vr(0)),
      Insn::move(Operand::reg(RegRV), vr(1)),
      Insn::ret(),
  };
  runInstructionSelection(*B.F, *T, B.AM);
  EXPECT_EQ(B0->Insns.size(), 4u);
  EXPECT_TRUE(B0->Insns[0].Src1.isMem()); // load stays separate
}

TEST(InstructionSelection, FormsTwoAddressMemoryOpOnCisc) {
  auto T = target::createTarget(target::TargetKind::M68);
  Builder B;
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::binary(Opcode::Add, vr(0), Slot, Operand::imm(1)),
      Insn::move(Slot, vr(0)),
      Insn::ret(),
  };
  EXPECT_TRUE(runInstructionSelection(*B.F, *T, B.AM).Changed);
  // "L[fp-4] = L[fp-4] + 1" in one RTL.
  ASSERT_EQ(B0->Insns.size(), 2u);
  EXPECT_EQ(B0->Insns[0].Op, Opcode::Add);
  EXPECT_TRUE(B0->Insns[0].Dst.isMem());
}

TEST(InstructionSelection, DoesNotFoldAcrossClobberingStore) {
  auto T = target::createTarget(target::TargetKind::M68);
  Builder B;
  BasicBlock *B0 = B.block();
  Operand Slot = Operand::mem(RegFP, -4, 4);
  B0->Insns = {
      Insn::move(vr(0), Slot),
      Insn::move(Operand::mem(FirstVirtual + 9, 0, 4), Operand::imm(0)),
      Insn::binary(Opcode::Add, vr(1), vr(8), vr(0)),
      Insn::move(Operand::reg(RegRV), vr(1)),
      Insn::ret(),
  };
  runInstructionSelection(*B.F, *T, B.AM);
  // The intervening store may alias: the load must not move past it.
  EXPECT_TRUE(B0->Insns[0].Src1.isMem());
  EXPECT_EQ(B0->Insns.size(), 5u);
}

TEST(DelaySlots, FillsFromIndependentInsn) {
  Builder B;
  int LT = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(vr(0), Operand::imm(5)),      // independent: can fill
      Insn::compare(vr(1), Operand::imm(0)),
      Insn::condJump(CondCode::Lt, LT),
  };
  BasicBlock *B1 = B.block();
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = B.block(LT);
  B2->Insns.push_back(Insn::ret());
  int Nops = 0;
  EXPECT_TRUE(runDelaySlotFilling(*B.F, &Nops).Changed);
  ASSERT_TRUE(B0->DelaySlot.has_value());
  EXPECT_EQ(B0->DelaySlot->Op, Opcode::Move);
  EXPECT_EQ(B0->Insns.size(), 2u); // the move left the body
}

TEST(DelaySlots, EmitsNopWhenDependent) {
  Builder B;
  int LT = B.F->freshLabel();
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::compare(vr(1), Operand::imm(0)), // feeds the branch
      Insn::condJump(CondCode::Lt, LT),
  };
  BasicBlock *B1 = B.block();
  B1->Insns.push_back(Insn::ret());
  BasicBlock *B2 = B.block(LT);
  B2->Insns.push_back(Insn::ret());
  int Nops = 0;
  runDelaySlotFilling(*B.F, &Nops);
  ASSERT_TRUE(B0->DelaySlot.has_value());
  EXPECT_EQ(B0->DelaySlot->Op, Opcode::Nop);
  EXPECT_GE(Nops, 1);
}

TEST(DelaySlots, ReturnValueSetterStaysOutOfReturnSlot) {
  Builder B;
  BasicBlock *B0 = B.block();
  B0->Insns = {
      Insn::move(Operand::reg(RegRV), Operand::imm(9)),
      Insn::ret(),
  };
  runDelaySlotFilling(*B.F);
  ASSERT_TRUE(B0->DelaySlot.has_value());
  EXPECT_EQ(B0->DelaySlot->Op, Opcode::Nop);
  EXPECT_EQ(B0->Insns.size(), 2u);
}

} // namespace
