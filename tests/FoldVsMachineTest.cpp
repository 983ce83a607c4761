//===- FoldVsMachineTest.cpp - Folding computes what the machine computes -===//
//
// Every ALU op, Neg, Not and Compare+CondJump (under all six conditions)
// on a grid of 32-bit edge values, folded twice: by constant folding with
// immediate operands, and by CSE's constant propagation with the operands
// in registers, on both targets. Each folded RTL is checked against the
// EASE machine running the unfolded one: it folds to exactly the value the
// machine computes, or - exactly when the machine traps on it - it stays
// in place and traps the same way.
//
//===----------------------------------------------------------------------===//

#include "ease/Interp.h"
#include "opt/Pass.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;
using namespace coderep::rtl;

namespace {

constexpr int32_t Grid[] = {INT32_MIN, INT32_MIN + 1, -33, -32, -31, -2, -1,
                            0,         1,             2,   31,  32,  33,
                            INT32_MAX - 1, INT32_MAX};

constexpr CondCode AllConds[] = {CondCode::Eq, CondCode::Ne, CondCode::Lt,
                                 CondCode::Le, CondCode::Gt, CondCode::Ge};

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// One function under test and the analysis manager CSE queries.
struct Probe {
  std::unique_ptr<Function> F = std::make_unique<Function>("probe");
  AnalysisManager AM{*F};
  Probe() {
    for (int I = 0; I < 3; ++I)
      F->freshVReg();
  }
};

bool isUnary(Opcode Op) { return Op == Opcode::Neg || Op == Opcode::Not; }

/// Builds \p Op on (\p A, \p B) into \p P: its operands are immediates, or
/// registers loaded with them when \p InRegisters. The result reaches RV,
/// so the run's exit code is the computed value (1 when a CondJump is
/// taken, 0 when it falls through). Returns the index in block 0 of the
/// RTL a fold rewrites: the op, or the CondJump after a Compare.
size_t build(Probe &P, Opcode Op, CondCode Cond, bool InRegisters, int32_t A,
             int32_t B) {
  const Operand RV = Operand::reg(RegRV);
  BasicBlock *B0 = P.F->appendBlock();
  Operand X = Operand::imm(A), Y = Operand::imm(B);
  if (InRegisters) {
    B0->Insns.push_back(Insn::move(vr(0), X));
    B0->Insns.push_back(Insn::move(vr(1), Y));
    X = vr(0);
    Y = vr(1);
  }
  if (Op == Opcode::Compare) {
    const int Taken = P.F->freshLabel();
    B0->Insns.push_back(Insn::compare(X, Y));
    B0->Insns.push_back(Insn::condJump(Cond, Taken));
    P.F->appendBlock()->Insns = {Insn::move(RV, Operand::imm(0)),
                                 Insn::ret()};
    P.F->appendBlockWithLabel(Taken)->Insns = {
        Insn::move(RV, Operand::imm(1)), Insn::ret()};
    return B0->Insns.size() - 1;
  }
  B0->Insns.push_back(isUnary(Op) ? Insn::unary(Op, vr(2), X)
                                  : Insn::binary(Op, vr(2), X, Y));
  B0->Insns.push_back(Insn::move(RV, vr(2)));
  B0->Insns.push_back(Insn::ret());
  return B0->Insns.size() - 3;
}

std::string opName(Opcode Op) {
  static const char *const Names[] = {
      "Move", "Add", "Sub", "Mul", "Div", "Rem", "And",
      "Or",   "Xor", "Shl", "Shr", "Neg", "Not", "Lea", "Compare"};
  return Names[static_cast<int>(Op)];
}

class FoldVsMachine : public ::testing::TestWithParam<Opcode> {
protected:
  ease::Machine M;

  ease::RunResult run(const Function &F) {
    ease::RunOptions RO;
    RO.EntryFunction = 0;
    return M.run(ease::Image(F, {}), RO);
  }

  /// Checks the RTL at \p At of the folded \p F against the machine's run
  /// of the unfolded function, \p Unfolded.
  void expectFoldMatches(const Function &F, size_t At,
                         const ease::RunResult &Unfolded) {
    const BasicBlock &B0 = *F.block(0);
    if (GetParam() == Opcode::Compare) {
      // A decided branch becomes a jump when taken and vanishes when not.
      ASSERT_TRUE(Unfolded.ok()) << Unfolded.TrapMessage;
      if (Unfolded.ExitCode == 1) {
        ASSERT_EQ(B0.Insns.size(), At + 1);
        EXPECT_EQ(B0.Insns[At].Op, Opcode::Jump);
      } else {
        EXPECT_EQ(B0.Insns.size(), At);
      }
    } else if (Unfolded.ok()) {
      ASSERT_GT(B0.Insns.size(), At);
      const auto I = B0.Insns[At];
      EXPECT_EQ(I.Op, Opcode::Move);
      EXPECT_TRUE(I.Src1.isImm());
      EXPECT_EQ(I.Src1.Disp, Unfolded.ExitCode);
    } else {
      // A trapping op stays, so the optimized program traps alike.
      ASSERT_GT(B0.Insns.size(), At);
      EXPECT_EQ(B0.Insns[At].Op, GetParam());
    }
    const ease::RunResult Folded = run(F);
    EXPECT_EQ(Folded.TrapKind, Unfolded.TrapKind) << Folded.TrapMessage;
    EXPECT_EQ(Folded.ExitCode, Unfolded.ExitCode);
  }
};

TEST_P(FoldVsMachine, OnEdgeGrid) {
  const Opcode Op = GetParam();
  const std::vector<int32_t> Rhs =
      isUnary(Op) ? std::vector<int32_t>{0}
                  : std::vector<int32_t>(std::begin(Grid), std::end(Grid));
  const std::vector<CondCode> Conds =
      Op == Opcode::Compare
          ? std::vector<CondCode>(std::begin(AllConds), std::end(AllConds))
          : std::vector<CondCode>{CondCode::Eq};
  const std::unique_ptr<target::Target> Targets[] = {
      target::createTarget(target::TargetKind::M68),
      target::createTarget(target::TargetKind::Sparc)};
  for (int32_t A : Grid)
    for (int32_t B : Rhs)
      for (CondCode Cond : Conds) {
        SCOPED_TRACE(opName(Op) + "(" + std::to_string(A) + ", " +
                     std::to_string(B) + ")" +
                     (Op == Opcode::Compare
                          ? " cond " + std::to_string(static_cast<int>(Cond))
                          : ""));
        {
          SCOPED_TRACE("constant folding, immediate operands");
          Probe P;
          const size_t At = build(P, Op, Cond, false, A, B);
          const ease::RunResult Unfolded = run(*P.F);
          runConstantFolding(*P.F);
          expectFoldMatches(*P.F, At, Unfolded);
        }
        for (const auto &T : Targets) {
          SCOPED_TRACE(std::string("CSE, register operands, ") + T->name());
          Probe P;
          const size_t At = build(P, Op, Cond, true, A, B);
          const ease::RunResult Unfolded = run(*P.F);
          runLocalCse(*P.F, *T, P.AM);
          expectFoldMatches(*P.F, At, Unfolded);
        }
        if (HasFailure())
          return;
      }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, FoldVsMachine,
    ::testing::Values(Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                      Opcode::Rem, Opcode::And, Opcode::Or, Opcode::Xor,
                      Opcode::Shl, Opcode::Shr, Opcode::Neg, Opcode::Not,
                      Opcode::Compare),
    [](const auto &Info) { return opName(Info.param); });

} // namespace
