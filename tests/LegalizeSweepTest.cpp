//===- LegalizeSweepTest.cpp - Parameterized legalization sweeps -------------------===//
//
// Property-style sweep: every RTL shape the code generator can emit, over
// every operand-kind combination and both targets, must legalize to a
// sequence of legal instructions that computes the same value. The
// interpreter is the oracle.
//
//===----------------------------------------------------------------------===//

#include "ease/Interp.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::ease;
using namespace coderep::rtl;
using namespace coderep::target;

namespace {

enum class Shape { RegReg, RegImm, RegMem, MemReg, MemImm, MemMem };

/// gtest prints a parameter without a printer as its bytes, into the
/// ctest name too, so the struct has no padding: the three bytes after the
/// one-byte Op are a member, zero in every instance.
struct SweepParam {
  TargetKind TK;
  Opcode Op;
  uint8_t Zero[3];
  Shape S;
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "padding bytes would print as garbage in the test names");

std::string paramName(const ::testing::TestParamInfo<SweepParam> &Info) {
  std::string N = Info.param.TK == TargetKind::M68 ? "M68_" : "Sparc_";
  switch (Info.param.Op) {
  case Opcode::Add:
    N += "Add";
    break;
  case Opcode::Sub:
    N += "Sub";
    break;
  case Opcode::Mul:
    N += "Mul";
    break;
  case Opcode::Div:
    N += "Div";
    break;
  case Opcode::And:
    N += "And";
    break;
  case Opcode::Shl:
    N += "Shl";
    break;
  default:
    N += "Op";
    break;
  }
  switch (Info.param.S) {
  case Shape::RegReg:
    N += "_rr";
    break;
  case Shape::RegImm:
    N += "_ri";
    break;
  case Shape::RegMem:
    N += "_rm";
    break;
  case Shape::MemReg:
    N += "_mr";
    break;
  case Shape::MemImm:
    N += "_mi";
    break;
  case Shape::MemMem:
    N += "_mm";
    break;
  }
  return N;
}

class LegalizeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LegalizeSweep, LegalAndValuePreserving) {
  const SweepParam &P = GetParam();
  auto T = createTarget(P.TK);

  // Two memory slots below the initial SP, plus two register inputs.
  constexpr int64_t A = 37, B = 5;
  Program Prog;
  auto F = std::make_unique<Function>("main");
  for (int I = 0; I < 32; ++I)
    F->freshVReg();
  Operand VA = Operand::reg(FirstVirtual + 0);
  Operand VB = Operand::reg(FirstVirtual + 1);
  Operand MA = Operand::mem(RegFP, -8, 4);
  Operand MB = Operand::mem(RegFP, -16, 4);
  Operand MOut = Operand::mem(RegFP, -24, 4);

  BasicBlock *Blk = F->appendBlock();
  Blk->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  Blk->Insns.push_back(Insn::move(VA, Operand::imm(A)));
  Blk->Insns.push_back(Insn::move(VB, Operand::imm(B)));
  Blk->Insns.push_back(Insn::move(MA, Operand::imm(A)));
  Blk->Insns.push_back(Insn::move(MB, Operand::imm(B)));

  Operand Dst = Operand::reg(FirstVirtual + 2);
  switch (P.S) {
  case Shape::RegReg:
    Blk->Insns.push_back(Insn::binary(P.Op, Dst, VA, VB));
    break;
  case Shape::RegImm:
    Blk->Insns.push_back(Insn::binary(P.Op, Dst, VA, Operand::imm(B)));
    break;
  case Shape::RegMem:
    Blk->Insns.push_back(Insn::binary(P.Op, Dst, VA, MB));
    break;
  case Shape::MemReg:
    Blk->Insns.push_back(Insn::binary(P.Op, MOut, MA, VB));
    Blk->Insns.push_back(Insn::move(Dst, MOut));
    break;
  case Shape::MemImm:
    Blk->Insns.push_back(Insn::binary(P.Op, MOut, MA, Operand::imm(B)));
    Blk->Insns.push_back(Insn::move(Dst, MOut));
    break;
  case Shape::MemMem:
    Blk->Insns.push_back(Insn::binary(P.Op, Dst, MA, MB));
    break;
  }
  Blk->Insns.push_back(Insn::move(Operand::reg(RegRV), Dst));
  Blk->Insns.push_back(Insn::ret());
  F->verify();

  T->legalizeFunction(*F);
  F->verify();
  for (int I = 0; I < F->size(); ++I)
    for (const Insn &X : F->block(I)->Insns)
      EXPECT_TRUE(T->isLegal(X)) << toString(X);

  Prog.Functions.push_back(std::move(F));
  RunOptions RO;
  RunResult R = run(Prog, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;

  int64_t Expected = 0;
  switch (P.Op) {
  case Opcode::Add:
    Expected = A + B;
    break;
  case Opcode::Sub:
    Expected = A - B;
    break;
  case Opcode::Mul:
    Expected = A * B;
    break;
  case Opcode::Div:
    Expected = A / B;
    break;
  case Opcode::And:
    Expected = A & B;
    break;
  case Opcode::Shl:
    Expected = A << B;
    break;
  default:
    FAIL() << "unexpected opcode";
  }
  EXPECT_EQ(R.ExitCode, Expected);
}

std::vector<SweepParam> allParams() {
  std::vector<SweepParam> Out;
  for (TargetKind TK : {TargetKind::M68, TargetKind::Sparc})
    for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div,
                      Opcode::And, Opcode::Shl})
      for (Shape S : {Shape::RegReg, Shape::RegImm, Shape::RegMem,
                      Shape::MemReg, Shape::MemImm, Shape::MemMem})
        Out.push_back({TK, Op, {}, S});
  return Out;
}

INSTANTIATE_TEST_SUITE_P(AllShapes, LegalizeSweep,
                         ::testing::ValuesIn(allParams()), paramName);

} // namespace
