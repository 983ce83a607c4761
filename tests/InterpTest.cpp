//===- InterpTest.cpp - RTL interpreter unit tests --------------------------------===//

#include "ease/Interp.h"

#include "frontend/CodeGen.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::ease;
using namespace coderep::rtl;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// Builds a one-function program around the given body instructions; the
/// body must leave the result in RegRV and end with Return.
Program makeProgram(std::vector<Insn> Body) {
  Program P;
  auto F = std::make_unique<Function>("main");
  for (int I = 0; I < 16; ++I)
    F->freshVReg(); // size the register file for vr(0..15)
  BasicBlock *B = F->appendBlock();
  B->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  for (Insn &I : Body)
    B->Insns.push_back(std::move(I));
  if (!B->endsWithUnconditionalTransfer())
    B->Insns.push_back(Insn::ret());
  P.Functions.push_back(std::move(F));
  return P;
}

int32_t evalProgram(std::vector<Insn> Body) {
  Program P = makeProgram(std::move(Body));
  RunOptions RO;
  RunResult R = run(P, RO);
  EXPECT_TRUE(R.ok()) << R.TrapMessage;
  return R.ExitCode;
}

TEST(Interp, ArithmeticWrapsTo32Bits) {
  // INT_MAX + 1 == INT_MIN, observed via (x >> 31).
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(0x7fffffff)),
                Insn::binary(Opcode::Add, vr(0), vr(0), Operand::imm(1)),
                Insn::binary(Opcode::Shr, vr(0), vr(0), Operand::imm(31)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -1);
}

TEST(Interp, MulWraps) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(0x10000)),
                Insn::binary(Opcode::Mul, vr(0), vr(0), vr(0)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            0);
}

TEST(Interp, ShiftCountsAreMasked) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(1)),
                Insn::binary(Opcode::Shl, vr(0), vr(0), Operand::imm(33)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            2);
}

TEST(Interp, SignedDivisionTruncatesTowardZero) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(-7)),
                Insn::binary(Opcode::Div, vr(0), vr(0), Operand::imm(2)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -3);
  EXPECT_EQ(evalProgram({
                Insn::move(vr(0), Operand::imm(-7)),
                Insn::binary(Opcode::Rem, vr(0), vr(0), Operand::imm(2)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -1);
}

TEST(Interp, DivisionByZeroTraps) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::imm(1)),
      Insn::binary(Opcode::Div, vr(0), vr(0), Operand::imm(0)),
  });
  RunOptions RO;
  RunResult R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::DivByZero);
}

TEST(Interp, SignedDivisionOverflowTraps) {
  // INT32_MIN / -1 (and the matching Rem) is host UB; the interpreted
  // machine defines it as a trap so differential runs can compare it.
  for (Opcode Op : {Opcode::Div, Opcode::Rem}) {
    Program P = makeProgram({
        Insn::move(vr(0), Operand::imm(INT32_MIN)),
        Insn::binary(Op, vr(0), vr(0), Operand::imm(-1)),
    });
    RunOptions RO;
    RunResult R = run(P, RO);
    EXPECT_EQ(R.TrapKind, Trap::Overflow);
  }
}

TEST(Interp, EntryModeRunsOneFunctionOnArgs) {
  // Function-entry mode (the oracle's probe harness): start at a function
  // that is not main, with arguments at [SP + 4*i] per the stack
  // convention, and surface its return value as the exit code.
  Program P;
  auto F = std::make_unique<Function>("f");
  for (int I = 0; I < 4; ++I)
    F->freshVReg();
  BasicBlock *B = F->appendBlock();
  B->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  B->Insns.push_back(Insn::move(vr(0), Operand::mem(RegSP, 0, 4)));
  B->Insns.push_back(Insn::move(vr(1), Operand::mem(RegSP, 4, 4)));
  B->Insns.push_back(Insn::binary(Opcode::Sub, vr(0), vr(0), vr(1)));
  B->Insns.push_back(Insn::move(Operand::reg(RegRV), vr(0)));
  B->Insns.push_back(Insn::ret());
  P.Functions.push_back(std::move(F));
  RunOptions RO;
  RO.EntryFunction = 0;
  RO.EntryArgs = {9, 4};
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 5);
}

TEST(Interp, StubbedCallsAreRecordedAndDeterministic) {
  // StubCalls treats measured calls as uninterpreted observables: the
  // callee need not even exist, its arguments are captured from the
  // stack, and its return value is synthesized from the stub seed.
  auto runOnce = [](uint64_t StubSeed) {
    Program P = makeProgram({
        Insn::move(Operand::mem(RegSP, 0, 4), Operand::imm(11)),
        Insn::move(Operand::mem(RegSP, 4, 4), Operand::imm(22)),
        Insn::call(1),
    });
    RunOptions RO;
    RO.StubCalls = true;
    RO.StubSeed = StubSeed;
    RunResult R = run(P, RO);
    EXPECT_TRUE(R.ok()) << R.TrapMessage;
    return R;
  };
  RunResult A = runOnce(7);
  ASSERT_EQ(A.CallEvents.size(), 1u);
  EXPECT_EQ(A.CallEvents[0].Callee, 1);
  EXPECT_EQ(A.CallEvents[0].Args[0], 11);
  EXPECT_EQ(A.CallEvents[0].Args[1], 22);
  // The synthesized return value flows back through RegRV into the exit
  // code and is a pure function of (seed, event index, callee).
  EXPECT_EQ(A.ExitCode, A.CallEvents[0].Rv);
  RunResult B = runOnce(7);
  EXPECT_EQ(A.CallEvents, B.CallEvents);
}

TEST(Interp, MemImageSeedsGlobalsButInitializersWin) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::mem(-1, 0, 4, -1, 1, 0)), // g0 (no init)
      Insn::move(vr(1), Operand::mem(-1, 0, 4, -1, 1, 1)), // g1 (init 5)
      Insn::binary(Opcode::Add, vr(0), vr(0), vr(1)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  Global G0;
  G0.Name = "g0";
  G0.Size = 4;
  P.Globals.push_back(G0);
  Global G1;
  G1.Name = "g1";
  G1.Size = 4;
  G1.Init = {5, 0, 0, 0};
  P.Globals.push_back(G1);
  std::vector<uint8_t> Image(8, 0);
  Image[0] = 3; // overlays g0's first byte
  Image[4] = 9; // overlaid in turn by g1's initializer
  RunOptions RO;
  RO.MemImage = &Image;
  RO.CaptureGlobals = true;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 8);
  ASSERT_GE(R.GlobalsMem.size(), 8u);
  EXPECT_EQ(R.GlobalsMem[0], 3u);
  EXPECT_EQ(R.GlobalsMem[4], 5u);
}

TEST(Interp, ByteLoadsSignExtend) {
  // Store 0x80 as a byte below SP, load it back: -128.
  EXPECT_EQ(evalProgram({
                Insn::move(Operand::mem(RegSP, -64, 1), Operand::imm(0x80)),
                Insn::move(vr(0), Operand::mem(RegSP, -64, 1)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            -128);
}

TEST(Interp, WordStoresAreLittleEndianBytes) {
  EXPECT_EQ(evalProgram({
                Insn::move(Operand::mem(RegSP, -64, 4),
                           Operand::imm(0x01020304)),
                Insn::move(vr(0), Operand::mem(RegSP, -64, 1)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            4);
}

TEST(Interp, ScaledIndexAddressing) {
  EXPECT_EQ(evalProgram({
                Insn::move(vr(1), Operand::imm(3)), // index
                Insn::move(Operand::mem(RegSP, -64 + 12, 4),
                           Operand::imm(77)),
                Insn::move(vr(0),
                           Operand::mem(RegSP, -64, 4, FirstVirtual + 1, 4)),
                Insn::move(Operand::reg(RegRV), vr(0)),
            }),
            77);
}

TEST(Interp, NullPageAccessTraps) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::mem(-1, 8, 4)), // absolute address 8
  });
  RunOptions RO;
  RunResult R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::OutOfBounds);
}

TEST(Interp, StepLimitTraps) {
  Program P;
  auto F = std::make_unique<Function>("main");
  int L = F->freshLabel();
  BasicBlock *B = F->appendBlockWithLabel(L);
  B->Insns.push_back(Insn::jump(L)); // infinite loop
  P.Functions.push_back(std::move(F));
  RunOptions RO;
  RO.MaxSteps = 1000;
  RunResult R = run(P, RO);
  EXPECT_EQ(R.TrapKind, Trap::StepLimit);
}

TEST(Interp, MissingMainTraps) {
  Program P;
  RunOptions RO;
  EXPECT_EQ(run(P, RO).TrapKind, Trap::BadProgram);
}

TEST(Interp, GlobalsInitializedAndRelocated) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::mem(-1, 0, 4, -1, 1, 0)),  // g0 word 0
      Insn::move(vr(1), Operand::mem(-1, 0, 4, -1, 1, 1)),  // g1 = &g0
      Insn::move(vr(2), Operand::mem(FirstVirtual + 1, 0, 4)), // *g1
      Insn::binary(Opcode::Sub, vr(0), vr(0), vr(2)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  Global G0;
  G0.Name = "g0";
  G0.Size = 4;
  G0.Init = {42, 0, 0, 0};
  P.Globals.push_back(G0);
  Global G1;
  G1.Name = "g1";
  G1.Size = 4;
  G1.Relocs.push_back({0, 0});
  P.Globals.push_back(G1);
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.ExitCode, 0); // *(&g0) == g0
}

TEST(Interp, DelaySlotExecutesOnBothBranchOutcomes) {
  // if (taken) -> slot must still run.
  for (int64_t Bias : {0, 1}) {
    Program P;
    auto F = std::make_unique<Function>("main");
    for (int I = 0; I < 16; ++I)
      F->freshVReg();
    int LExit = F->freshLabel();
    BasicBlock *B0 = F->appendBlock();
    B0->Insns.push_back(Insn::move(vr(0), Operand::imm(Bias)));
    B0->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
    B0->Insns.push_back(Insn::condJump(CondCode::Ne, LExit));
    B0->DelaySlot = Insn::move(Operand::reg(RegRV), Operand::imm(99));
    BasicBlock *B1 = F->appendBlock();
    B1->Insns.push_back(Insn::ret());
    BasicBlock *B2 = F->appendBlockWithLabel(LExit);
    B2->Insns.push_back(Insn::ret());
    P.Functions.push_back(std::move(F));
    RunOptions RO;
    RunResult R = run(P, RO);
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(R.ExitCode, 99) << "bias " << Bias;
  }
}

TEST(Interp, DynamicStatsCountKinds) {
  const char *Src = R"(
    int main() {
      int i, s;
      s = 0;
      for (i = 0; i < 10; i++)
        s += i;
      return s;
    }
  )";
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.ExitCode, 45);
  EXPECT_EQ(R.Stats.UncondJumps, 1u);       // the for-loop entry jump
  EXPECT_EQ(R.Stats.CondBranches, 11u);     // 10 taken + 1 exit
  EXPECT_EQ(R.Stats.Returns, 1u);
  EXPECT_EQ(R.Stats.Calls, 0u);
  EXPECT_GT(R.Stats.Executed, 40u);
  EXPECT_GT(R.Stats.insnsBetweenBranches(), 1.0);
}

TEST(Interp, IntrinsicsRoundTrip) {
  const char *Src = R"(
    char buf[32];
    int main() {
      strcpy(buf, "abc");
      printf("[%s|%d|%c|%o|%x|%5d|%-3d]", buf, -7, 65, 8, 255, 42, 1);
      printf("%%");
      return strcmp(buf, "abd") < 0 && strlen(buf) == 3 && abs(-4) == 4 &&
             atoi("123") == 123;
    }
  )";
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "[abc|-7|A|10|ff|   42|1  ]%");
  EXPECT_EQ(R.ExitCode, 1);
}

// %c prints the low byte of its argument, padded to the field width, as C
// does. A length modifier on it once made glibc read a wide character,
// refuse every value of 128 and up, and abort the compiler.
TEST(Interp, PrintfCharIsTheArgumentsLowByte) {
  const char *Src = R"(
    int main() {
      printf("[%c][%3c][%-3c]", 200, 200, 200);
      printf("[%c][%3c][%-3c]", 65, 65, 321);
      return 0;
    }
  )";
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
  RunOptions RO;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Output, "[\xC8][  \xC8][\xC8  ][A][  A][A  ]");
}

/// Records every fetch address, in order.
struct FetchRecorder : FetchSink {
  std::vector<uint32_t> Addrs;
  void fetch(uint32_t Addr) override { Addrs.push_back(Addr); }
};

TEST(Layout, AddressesAreSequentialWords) {
  Program P = makeProgram({
      Insn::move(vr(0), Operand::imm(1)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  Image Img(P, 0x100);
  // 4 RTLs (prologue move + 2 + ret).
  EXPECT_EQ(Img.codeBytes(), 16u);
  FetchRecorder Sink;
  RunOptions RO;
  RO.Sink = &Sink;
  Machine M;
  ASSERT_TRUE(M.run(Img, RO).ok());
  EXPECT_EQ(Sink.Addrs, (std::vector<uint32_t>{0x100, 0x104, 0x108, 0x10c}));
}

TEST(Layout, DelaySlotOccupiesWordAfterTerminator) {
  Program P = makeProgram({Insn::move(Operand::reg(RegRV), Operand::imm(0))});
  P.Functions[0]->block(0)->DelaySlot = Insn(Opcode::Nop);
  Image Img(P);
  EXPECT_EQ(Img.codeBytes(), 16u); // 3 RTLs + slot
  FetchRecorder Sink;
  RunOptions RO;
  RO.Sink = &Sink;
  Machine M;
  ASSERT_TRUE(M.run(Img, RO).ok());
  // The return at 8 is fetched before its slot at 12.
  EXPECT_EQ(Sink.Addrs, (std::vector<uint32_t>{0, 4, 8, 12}));
}

/// A loop over empty blocks, fall-throughs and delay slots:
///   B0: fp <- sp; v0 <- 3            (falls through)
///   B1: (empty)
///   B2: v0 -= 1; NZ <- v0 ? 0; if NZ != 0 goto B2   [slot: v1 += 2]
///   B3: (empty)
///   B4: rv <- v1; goto B5                          [slot: nop]
///   B5: return                                     [slot: rv += 1]
Program stepProgram() {
  Program P;
  auto F = std::make_unique<Function>("main");
  for (int I = 0; I < 4; ++I)
    F->freshVReg();
  int LLoop = F->freshLabel();
  int LEnd = F->freshLabel();
  BasicBlock *B0 = F->appendBlock();
  B0->Insns.push_back(Insn::move(Operand::reg(RegFP), Operand::reg(RegSP)));
  B0->Insns.push_back(Insn::move(vr(0), Operand::imm(3)));
  F->appendBlock();
  BasicBlock *B2 = F->appendBlockWithLabel(LLoop);
  B2->Insns.push_back(
      Insn::binary(Opcode::Sub, vr(0), vr(0), Operand::imm(1)));
  B2->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
  B2->Insns.push_back(Insn::condJump(CondCode::Ne, LLoop));
  B2->DelaySlot = Insn::binary(Opcode::Add, vr(1), vr(1), Operand::imm(2));
  F->appendBlock();
  BasicBlock *B4 = F->appendBlock();
  B4->Insns.push_back(Insn::move(Operand::reg(RegRV), vr(1)));
  B4->Insns.push_back(Insn::jump(LEnd));
  B4->DelaySlot = Insn(Opcode::Nop);
  BasicBlock *B5 = F->appendBlockWithLabel(LEnd);
  B5->Insns.push_back(Insn::ret());
  B5->DelaySlot = Insn::binary(Opcode::Add, Operand::reg(RegRV),
                               Operand::reg(RegRV), Operand::imm(1));
  P.Functions.push_back(std::move(F));
  return P;
}

TEST(Image, EveryStepBudgetPinsExecutedAndFetches) {
  // Recorded from the block-walking interpreter the image replaced. A
  // fall-through out of a block is a step that fetches nothing, so
  // budgets 3 and 4 (leaving B0 and the empty B1) and 14 (leaving the
  // empty B3) execute no more RTLs than the budget before them.
  const std::vector<uint32_t> Fetches = {0,  4,  8,  12, 16, 20, 8,
                                         12, 16, 20, 8,  12, 16, 20,
                                         24, 28, 32, 36, 40};
  const uint64_t Executed[] = {1,  2,  2,  2,  3,  4,  6,  7,  8,
                               10, 11, 12, 14, 14, 15, 17, 19};
  const uint64_t FullRun = std::size(Executed);
  Image Img(stepProgram());
  EXPECT_EQ(Img.codeBytes(), 44u);
  Machine M;
  for (uint64_t Budget = 1; Budget <= FullRun; ++Budget) {
    FetchRecorder Sink;
    RunOptions RO;
    RO.MaxSteps = Budget;
    RO.Sink = &Sink;
    const RunResult R = M.run(Img, RO);
    const uint64_t N = Executed[Budget - 1];
    EXPECT_EQ(R.Stats.Executed, N) << "budget " << Budget;
    EXPECT_EQ(R.TrapKind, Budget < FullRun ? Trap::StepLimit : Trap::None)
        << "budget " << Budget;
    EXPECT_EQ(Sink.Addrs, std::vector<uint32_t>(Fetches.begin(),
                                                Fetches.begin() + N))
        << "budget " << Budget;
    if (Budget == FullRun) {
      EXPECT_EQ(R.ExitCode, 7); // 3 trips of v1 += 2, then rv += 1
      EXPECT_EQ(R.Stats.Nops, 1u);
      EXPECT_EQ(R.Stats.CondBranches, 3u);
      EXPECT_EQ(R.Stats.CondTaken, 2u);
      EXPECT_EQ(R.Stats.UncondJumps, 1u);
    }
  }
}

void expectSameRun(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.CallEvents, B.CallEvents);
  EXPECT_EQ(A.GlobalsMem, B.GlobalsMem);
  EXPECT_EQ(A.Stats.Executed, B.Stats.Executed);
  EXPECT_EQ(A.Stats.UncondJumps, B.Stats.UncondJumps);
  EXPECT_EQ(A.Stats.IndirectJumps, B.Stats.IndirectJumps);
  EXPECT_EQ(A.Stats.CondBranches, B.Stats.CondBranches);
  EXPECT_EQ(A.Stats.CondTaken, B.Stats.CondTaken);
  EXPECT_EQ(A.Stats.Returns, B.Stats.Returns);
  EXPECT_EQ(A.Stats.Calls, B.Stats.Calls);
  EXPECT_EQ(A.Stats.Nops, B.Stats.Nops);
  EXPECT_EQ(A.TrapKind, B.TrapKind);
  EXPECT_EQ(A.TrapMessage, B.TrapMessage);
}

TEST(Machine, ReuseMatchesAFreshMachine) {
  // probe(1) dirties the globals and a frame 40 KB deep; probe(2) traps
  // inside the call to far(); probe(3) spins. probe(0) then reads the same
  // globals and stack words, which a reused machine must have zeroed -
  // the data segment and the stack both.
  const char *Src = R"(
    int g[4];
    int far(int i) { return g[i]; }
    int report(int x) { return x; }
    int probe(int mode) {
      int a[10000];
      int i;
      if (mode == 1) {
        for (i = 0; i < 10000; i++)
          a[i] = i + 1;
        g[0] = 7;
        g[3] = 9;
        return 1;
      }
      if (mode == 2)
        return far(3000000);
      if (mode == 3)
        while (1)
          i++;
      report(a[0] + a[9999]);
      return a[0] + a[5000] + a[9999] + g[0] + g[3];
    }
    int main() { return probe(getchar() - '0'); }
  )";
  Program P;
  std::string Err;
  ASSERT_TRUE(frontend::compileToRtl(Src, P, Err)) << Err;
  const int Probe = P.findFunction("probe");
  ASSERT_GE(Probe, 0);
  const Image Img(P);
  std::vector<uint8_t> MemImage(64, 0xa5);
  auto probeRun = [&](int Mode) {
    RunOptions RO;
    RO.EntryFunction = Probe;
    RO.EntryArgs = {Mode};
    RO.MemImage = &MemImage;
    RO.CaptureGlobals = true;
    return RO;
  };

  Machine Reused;
  const RunResult Dirty = Reused.run(Img, probeRun(1));
  ASSERT_TRUE(Dirty.ok()) << Dirty.TrapMessage;
  ASSERT_EQ(Dirty.GlobalsMem.size(), 16u);
  EXPECT_EQ(Dirty.GlobalsMem[0], 7u);
  RunOptions Trapping = probeRun(2);
  EXPECT_EQ(Reused.run(Img, Trapping).TrapKind, Trap::OutOfBounds);
  RunOptions Spinning = probeRun(3);
  Spinning.MaxSteps = 5000;
  EXPECT_EQ(Reused.run(Img, Spinning).TrapKind, Trap::StepLimit);

  // The oracle's input 0: no memory image, calls stubbed.
  RunOptions Clean = probeRun(0);
  Clean.MemImage = nullptr;
  Clean.StubCalls = true;
  const RunResult Again = Reused.run(Img, Clean);
  Machine Fresh;
  const RunResult First = Fresh.run(Img, Clean);
  ASSERT_TRUE(First.ok()) << First.TrapMessage;
  EXPECT_EQ(First.GlobalsMem, std::vector<uint8_t>(16, 0));
  ASSERT_EQ(First.CallEvents.size(), 1u);
  EXPECT_EQ(First.CallEvents[0].Args[0], 0);
  expectSameRun(Again, First);
  // ease::run is the same fresh machine.
  expectSameRun(run(P, Clean), First);
}

TEST(Interp, FetchSinkSeesEveryExecutedInsn) {
  struct Counter : FetchSink {
    uint64_t N = 0;
    void fetch(uint32_t) override { ++N; }
  } Sink;
  Program P = makeProgram({
      Insn::move(vr(0), Operand::imm(5)),
      Insn::move(Operand::reg(RegRV), vr(0)),
  });
  RunOptions RO;
  RO.Sink = &Sink;
  RunResult R = run(P, RO);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(Sink.N, R.Stats.Executed);
}

} // namespace
