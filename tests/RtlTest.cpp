//===- RtlTest.cpp - RTL IR unit tests ------------------------------------------===//

#include "rtl/Insn.h"

#include "Suite.h"
#include "cache/CompileCache.h"
#include "cfg/FunctionPrinter.h"
#include "frontend/CodeGen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace coderep;
using namespace coderep::rtl;

namespace {

TEST(Operand, Constructors) {
  Operand R = Operand::reg(5);
  EXPECT_TRUE(R.isReg());
  EXPECT_TRUE(R.isRegNo(5));
  EXPECT_FALSE(R.isRegNo(6));

  Operand I = Operand::imm(-42);
  EXPECT_TRUE(I.isImm());
  EXPECT_EQ(I.Disp, -42);

  Operand M = Operand::mem(RegFP, -8, 4);
  EXPECT_TRUE(M.isMem());
  EXPECT_EQ(M.Base, RegFP);
  EXPECT_EQ(M.Disp, -8);
  EXPECT_EQ(M.Size, 4);

  Operand None;
  EXPECT_TRUE(None.isNone());
}

TEST(Operand, Equality) {
  EXPECT_EQ(Operand::reg(3), Operand::reg(3));
  EXPECT_FALSE(Operand::reg(3) == Operand::reg(4));
  EXPECT_FALSE(Operand::reg(3) == Operand::imm(3));
  EXPECT_EQ(Operand::mem(1, 4, 4, 2, 4, -1), Operand::mem(1, 4, 4, 2, 4, -1));
  EXPECT_FALSE(Operand::mem(1, 4, 4) == Operand::mem(1, 4, 1));
  EXPECT_FALSE(Operand::mem(1, 4, 4, -1, 1, 0) ==
               Operand::mem(1, 4, 4, -1, 1, 1));
}

TEST(Operand, VirtualRegPredicate) {
  EXPECT_FALSE(isVirtualReg(RegSP));
  EXPECT_FALSE(isVirtualReg(FirstAllocatable));
  EXPECT_TRUE(isVirtualReg(FirstVirtual));
  EXPECT_TRUE(isVirtualReg(FirstVirtual + 100));
}

TEST(CondCode, NegateIsInvolution) {
  for (CondCode C : {CondCode::Eq, CondCode::Ne, CondCode::Lt, CondCode::Le,
                     CondCode::Gt, CondCode::Ge})
    EXPECT_EQ(negate(negate(C)), C);
  EXPECT_EQ(negate(CondCode::Lt), CondCode::Ge);
  EXPECT_EQ(negate(CondCode::Eq), CondCode::Ne);
  EXPECT_EQ(negate(CondCode::Le), CondCode::Gt);
}

TEST(CondCode, SwapOperands) {
  EXPECT_EQ(swapOperands(CondCode::Lt), CondCode::Gt);
  EXPECT_EQ(swapOperands(CondCode::Ge), CondCode::Le);
  EXPECT_EQ(swapOperands(CondCode::Eq), CondCode::Eq);
  EXPECT_EQ(swapOperands(CondCode::Ne), CondCode::Ne);
}

TEST(Insn, DefinedReg) {
  EXPECT_EQ(Insn::move(Operand::reg(7), Operand::imm(1)).definedReg(), 7);
  EXPECT_EQ(Insn::move(Operand::mem(RegFP, 0, 4), Operand::reg(7))
                .definedReg(),
            -1);
  EXPECT_EQ(Insn::compare(Operand::reg(7), Operand::imm(0)).definedReg(),
            RegCC);
  EXPECT_EQ(Insn::call(0).definedReg(), RegRV);
  EXPECT_EQ(Insn::jump(3).definedReg(), -1);
  EXPECT_EQ(Insn::lea(Operand::reg(9), Operand::mem(-1, 0, 4, -1, 1, 0))
                .definedReg(),
            9);
}

TEST(Insn, UsedRegs) {
  std::vector<int> Used;
  Insn::binary(Opcode::Add, Operand::reg(5), Operand::reg(6),
               Operand::mem(7, 0, 4, 8, 4))
      .appendUsedRegs(Used);
  EXPECT_EQ(Used, (std::vector<int>{6, 7, 8}));

  Used.clear();
  Insn Store = Insn::move(Operand::mem(7, 0, 4), Operand::reg(5));
  Store.appendUsedRegs(Used);
  EXPECT_EQ(Used, (std::vector<int>{7, 5}));

  Used.clear();
  Insn::condJump(CondCode::Lt, 3).appendUsedRegs(Used);
  EXPECT_EQ(Used, (std::vector<int>{RegCC}));

  Used.clear();
  Insn::ret().appendUsedRegs(Used);
  EXPECT_EQ(Used, (std::vector<int>{RegRV, RegSP, RegFP}));
}

TEST(Insn, MemoryEffects) {
  EXPECT_TRUE(Insn::move(Operand::mem(7, 0, 4), Operand::reg(5)).writesMem());
  EXPECT_TRUE(Insn::move(Operand::reg(5), Operand::mem(7, 0, 4)).readsMem());
  EXPECT_FALSE(
      Insn::move(Operand::reg(5), Operand::mem(7, 0, 4)).writesMem());
  // Lea forms an address but performs no access.
  Insn Lea = Insn::lea(Operand::reg(5), Operand::mem(7, 8, 4));
  EXPECT_FALSE(Lea.readsMem());
  EXPECT_FALSE(Lea.writesMem());
  // Calls conservatively do both.
  EXPECT_TRUE(Insn::call(0).readsMem());
  EXPECT_TRUE(Insn::call(0).writesMem());
}

TEST(Insn, StackPointerUpdatesAreSideEffects) {
  EXPECT_TRUE(Insn::binary(Opcode::Sub, Operand::reg(RegSP),
                           Operand::reg(RegSP), Operand::imm(8))
                  .hasSideEffects());
  EXPECT_TRUE(
      Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)).hasSideEffects());
  EXPECT_FALSE(Insn::binary(Opcode::Add, Operand::reg(FirstVirtual),
                            Operand::reg(FirstVirtual), Operand::imm(1))
                   .hasSideEffects());
}

TEST(Insn, RenameUsesAndDefs) {
  Insn I = Insn::binary(Opcode::Add, Operand::reg(5), Operand::reg(5),
                        Operand::mem(5, 0, 4));
  I.renameUses(5, 9);
  // The definition keeps its register; uses (including the address base)
  // are renamed.
  EXPECT_EQ(I.Dst.Base, 5);
  EXPECT_EQ(I.Src1.Base, 9);
  EXPECT_EQ(I.Src2.Base, 9);
  I.renameDef(5, 9);
  EXPECT_EQ(I.Dst.Base, 9);
}

TEST(Insn, TransferPredicates) {
  EXPECT_TRUE(Insn::jump(0).isUnconditionalTransfer());
  EXPECT_TRUE(Insn::ret().isUnconditionalTransfer());
  EXPECT_FALSE(Insn::condJump(CondCode::Eq, 0).isUnconditionalTransfer());
  EXPECT_TRUE(Insn::condJump(CondCode::Eq, 0).isTransfer());
  EXPECT_FALSE(Insn::call(0).isTransfer()); // control returns
  EXPECT_TRUE(
      Insn::switchJump(Operand::reg(5), {1, 2}).isUnconditionalTransfer());
}

TEST(Insn, ToStringMatchesPaperNotation) {
  EXPECT_EQ(toString(Insn::jump(15)), "PC=L15;");
  EXPECT_EQ(toString(Insn::ret()), "PC=RT;");
  EXPECT_EQ(toString(Insn::condJump(CondCode::Ge, 16)), "PC=NZ>=0,L16;");
  EXPECT_EQ(toString(Insn::compare(Operand::reg(FirstVirtual),
                                   Operand::imm(5))),
            "NZ=v[0]?5;");
  Insn ByteMove = Insn::move(Operand::mem(4, 0, 1),
                             Operand::mem(4, 1, 1));
  EXPECT_EQ(toString(ByteMove), "B[r[4]]=B[r[4]+1];");
}

// Pins the printed bytes of every operand form, opcode and condition, and
// of a function listing. The cache key, the server's responses and the
// oracle's identity check are all built from this text, so any moved byte
// invalidates disk-cache entries written by another build.
TEST(Insn, PrintedBytesArePinned) {
  EXPECT_EQ(toString(Operand()), "<none>");
  EXPECT_EQ(toString(Operand::reg(RegSP)), "sp");
  EXPECT_EQ(toString(Operand::reg(RegFP)), "fp");
  EXPECT_EQ(toString(Operand::reg(RegRV)), "rv");
  EXPECT_EQ(toString(Operand::reg(RegCC)), "NZ");
  EXPECT_EQ(toString(Operand::reg(5)), "r[5]");
  EXPECT_EQ(toString(Operand::reg(FirstVirtual + 7)), "v[7]");
  EXPECT_EQ(toString(Operand::imm(-5)), "-5");
  EXPECT_EQ(toString(Operand::imm(std::numeric_limits<int64_t>::min())),
            "-9223372036854775808");
  EXPECT_EQ(toString(Operand::mem(-1, 0)), "L[+0]");
  EXPECT_EQ(toString(Operand::mem(-1, 0, 4, -1, 1, 3)), "L[g3.]");
  EXPECT_EQ(toString(Operand::mem(RegFP, -8, 4, -1, 1, 3)), "L[g3.+fp-8]");
  EXPECT_EQ(toString(Operand::mem(4, 8, 4, 5, 4)), "L[r[4]+r[5]*4+8]");
  EXPECT_EQ(toString(Operand::mem(RegSP, 0, 1)), "B[sp]");
  // An index with no base or symbol keeps its leading '+'.
  EXPECT_EQ(toString(Operand::mem(-1, 12, 1, 6)), "B[+r[6]+12]");
  EXPECT_EQ(toString(Operand::mem(-1, -4, 4, FirstVirtual + 2, 4, 0)),
            "L[g0.+v[2]*4-4]");

  const Operand R5 = Operand::reg(5), R6 = Operand::reg(6);
  const Operand One = Operand::imm(1);
  EXPECT_EQ(toString(Insn::move(R5, Operand::imm(-5))), "r[5]=-5;");
  const std::pair<Opcode, const char *> Binary[] = {
      {Opcode::Add, "r[5]=r[6]+1;"},  {Opcode::Sub, "r[5]=r[6]-1;"},
      {Opcode::Mul, "r[5]=r[6]*1;"},  {Opcode::Div, "r[5]=r[6]/1;"},
      {Opcode::Rem, "r[5]=r[6]%1;"},  {Opcode::And, "r[5]=r[6]&1;"},
      {Opcode::Or, "r[5]=r[6]|1;"},   {Opcode::Xor, "r[5]=r[6]^1;"},
      {Opcode::Shl, "r[5]=r[6]<<1;"}, {Opcode::Shr, "r[5]=r[6]>>1;"}};
  for (const auto &[Op, Text] : Binary)
    EXPECT_EQ(toString(Insn::binary(Op, R5, R6, One)), Text);
  EXPECT_EQ(toString(Insn::unary(Opcode::Neg, R5, R6)), "r[5]=-r[6];");
  EXPECT_EQ(toString(Insn::unary(Opcode::Not, R5, R6)), "r[5]=~r[6];");
  EXPECT_EQ(toString(Insn::lea(R5, Operand::mem(RegFP, -8, 4, -1, 1, 3))),
            "r[5]=&L[g3.+fp-8];");
  EXPECT_EQ(toString(Insn::compare(R5, Operand::imm(0))), "NZ=r[5]?0;");
  const std::pair<CondCode, const char *> Conds[] = {
      {CondCode::Eq, "PC=NZ==0,L1;"}, {CondCode::Ne, "PC=NZ!=0,L1;"},
      {CondCode::Lt, "PC=NZ<0,L1;"},  {CondCode::Le, "PC=NZ<=0,L1;"},
      {CondCode::Gt, "PC=NZ>0,L1;"},  {CondCode::Ge, "PC=NZ>=0,L1;"}};
  for (const auto &[C, Text] : Conds)
    EXPECT_EQ(toString(Insn::condJump(C, 1)), Text);
  EXPECT_EQ(toString(Insn::jump(15)), "PC=L15;");
  EXPECT_EQ(toString(Insn::switchJump(R5, {1, 2, 3})),
            "PC=TAB[r[5]]{L1,L2,L3};");
  EXPECT_EQ(toString(Insn::switchJump(R5, {})), "PC=TAB[r[5]]{};");
  EXPECT_EQ(toString(Insn::call(4)), "CALL f4;");
  EXPECT_EQ(toString(Insn::call(IntrinsicPrintf)), "CALL f-4;");
  EXPECT_EQ(toString(Insn::ret()), "PC=RT;");
  EXPECT_EQ(toString(Insn(Opcode::Nop)), "NOP;");

  // Arena-held RTLs (switch table included) and the delay slot print the
  // same way through the function printer.
  cfg::Program P;
  P.Functions.push_back(std::make_unique<cfg::Function>("pin"));
  cfg::Function &F = *P.Functions.back();
  F.FrameBytes = 16;
  cfg::BasicBlock *Entry = F.appendBlock();
  cfg::BasicBlock *Exit = F.appendBlock();
  Entry->Insns.push_back(Insn::move(R5, Operand::mem(RegFP, -8)));
  Entry->Insns.push_back(Insn::switchJump(R5, {Exit->Label, Entry->Label}));
  Exit->Insns.push_back(Insn::ret());
  Exit->DelaySlot = Insn::move(Operand::reg(RegRV), R5);
  const std::string Listing = "function pin (frame 16 bytes)\n"
                              "L0:\n"
                              "    r[5]=L[fp-8];\n"
                              "    PC=TAB[r[5]]{L1,L0};\n"
                              "L1:\n"
                              "    PC=RT;\n"
                              "    [slot] rv=r[5];\n";
  EXPECT_EQ(cfg::toString(F), Listing);
  EXPECT_EQ(cfg::toString(P), Listing + "\n");
}

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

// Fingerprints the printed text of the whole suite, (program, SPARC then
// M68) in Table 5 order: the JUMPS listings, and the function-cache keys
// of every post-legalize function (header plus RTL text).
TEST(Insn, SuiteTextFingerprint) {
  std::string Listings, Keys;
  int KeyCount = 0;
  for (const bench::BenchProgram &BP : bench::suite()) {
    for (target::TargetKind TK :
         {target::TargetKind::Sparc, target::TargetKind::M68}) {
      driver::Compilation C =
          driver::compile(BP.Source, TK, opt::OptLevel::Jumps);
      ASSERT_TRUE(C.ok()) << BP.Name << ": " << C.Error;
      Listings += cfg::toString(*C.Prog);

      cfg::Program P;
      std::string Error;
      ASSERT_TRUE(frontend::compileToRtl(BP.Source, P, Error)) << Error;
      std::unique_ptr<target::Target> T = target::createTarget(TK);
      opt::PipelineOptions Opts;
      Opts.Level = opt::OptLevel::Jumps;
      for (auto &F : P.Functions) {
        T->legalizeFunction(*F);
        Keys += cache::PipelineCache().keyFor(*F, *T, Opts);
        ++KeyCount;
      }
    }
  }
  EXPECT_EQ(Listings.size(), 128018u);
  EXPECT_EQ(fnv1a64(Listings), 0xf3af7bf5bf4cf8c7ull);
  EXPECT_EQ(KeyCount, 58);
  EXPECT_EQ(Keys.size(), 133327u);
  EXPECT_EQ(fnv1a64(Keys), 0xf391c938a5cef438ull);
}

} // namespace
