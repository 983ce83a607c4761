//===- ShortestPathsTest.cpp - Lazy vs dense shortest-path oracle -------------===//
//
// The JUMPS planner trusts ShortestPaths completely: a wrong cost silently
// changes which sequences get replicated. The lazy per-source Dijkstra rows
// must therefore be bit-identical in cost to the dense Floyd-Warshall
// oracle on any flow graph the front end can produce, and every
// reconstructed path must be a real path whose RTL sum equals its cost.
//
//===----------------------------------------------------------------------===//

#include "verify/RandomProgram.h"

#include "cfg/Function.h"
#include "frontend/CodeGen.h"
#include "replicate/ShortestPaths.h"
#include "support/ThreadPool.h"
#include "target/Target.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::rtl;
using replicate::ShortestPaths;

namespace {

Operand vr(int N) { return Operand::reg(FirstVirtual + N); }

/// Checks that \p P is a real path of \p F from \p From to \p To (without
/// To itself) and that the RTLs along it sum to exactly \p Cost.
void expectValidPath(const Function &F, const std::vector<int> &P, int From,
                     int To, int64_t Cost) {
  ASSERT_FALSE(P.empty());
  EXPECT_EQ(P.front(), From);
  int64_t Rtls = 0;
  for (size_t I = 0; I < P.size(); ++I) {
    EXPECT_NE(P[I], To);
    Rtls += F.block(P[I])->rtlCount();
    int Next = I + 1 < P.size() ? P[I + 1] : To;
    bool EdgeOk = false;
    F.forEachSuccessor(P[I], [&](int S) { EdgeOk |= S == Next; });
    EXPECT_TRUE(EdgeOk) << "missing edge " << P[I] << " -> " << Next;
  }
  EXPECT_EQ(Rtls, Cost);
}

TEST(ShortestPaths, LazyMatchesDenseOracleOnRandomCfgs) {
  int FunctionsChecked = 0;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Program P;
    std::string Err;
    ASSERT_TRUE(frontend::compileToRtl(verify::randomProgram(Seed), P, Err))
        << Err;
    auto T = target::createTarget(Seed % 2 ? target::TargetKind::M68
                                           : target::TargetKind::Sparc);
    for (auto &FPtr : P.Functions) {
      Function &F = *FPtr;
      T->legalizeFunction(F);
      if (F.size() < 2)
        continue;
      ++FunctionsChecked;
      ShortestPaths Lazy(F, ShortestPaths::Strategy::Lazy);
      ShortestPaths Dense(F, ShortestPaths::Strategy::Dense);
      EXPECT_EQ(Dense.rowsComputed(), F.size());
      for (int U = 0; U < F.size(); ++U)
        for (int V = 0; V < F.size(); ++V) {
          if (U == V)
            continue;
          ASSERT_EQ(Lazy.cost(U, V), Dense.cost(U, V))
              << "cost mismatch " << U << " -> " << V << " in " << F.Name;
          if (Lazy.cost(U, V) < ShortestPaths::Inf) {
            expectValidPath(F, Lazy.path(U, V), U, V, Lazy.cost(U, V));
            expectValidPath(F, Dense.path(U, V), U, V, Dense.cost(U, V));
          }
        }
      EXPECT_LE(Lazy.rowsComputed(), F.size());
    }
  }
  // The corpus must actually exercise the comparison.
  EXPECT_GT(FunctionsChecked, 100);
}

/// A diamond whose two arms cost the same: 0 -> {1, 2} -> 3. Equal-cost
/// ties must break deterministically (towards the lower block index), and
/// path() must reconstruct the chosen arm exactly.
TEST(ShortestPaths, DiamondTieBreaksDeterministically) {
  Function F("diamond");
  int L1 = F.freshLabel(), L2 = F.freshLabel(), L3 = F.freshLabel(),
      L0 = F.freshLabel();
  BasicBlock *B0 = F.appendBlockWithLabel(L0);
  B0->Insns.push_back(Insn::compare(vr(0), Operand::imm(0)));
  B0->Insns.push_back(Insn::condJump(CondCode::Lt, L2));
  BasicBlock *B1 = F.appendBlockWithLabel(L1);
  B1->Insns.push_back(Insn::move(vr(1), Operand::imm(1)));
  B1->Insns.push_back(Insn::jump(L3));
  BasicBlock *B2 = F.appendBlockWithLabel(L2);
  B2->Insns.push_back(Insn::move(vr(1), Operand::imm(2)));
  B2->Insns.push_back(Insn::jump(L3));
  BasicBlock *B3 = F.appendBlockWithLabel(L3);
  B3->Insns.push_back(Insn::ret());

  ShortestPaths Lazy(F);
  ShortestPaths Dense(F, ShortestPaths::Strategy::Dense);
  // Both arms cost rtl(B0) + rtl(arm) = 2 + 2.
  EXPECT_EQ(Lazy.cost(0, 3), 4);
  EXPECT_EQ(Dense.cost(0, 3), Lazy.cost(0, 3));
  // The tie breaks towards block 1, and repeated reconstruction agrees.
  std::vector<int> P = Lazy.path(0, 3);
  EXPECT_EQ(P, (std::vector<int>{0, 1}));
  EXPECT_EQ(Lazy.path(0, 3), P);
  expectValidPath(F, P, 0, 3, 4);
  // Single-hop rows too.
  EXPECT_EQ(Lazy.path(1, 3), (std::vector<int>{1}));
  EXPECT_EQ(Lazy.cost(1, 3), 2);
}

TEST(ThreadPool, StressSubmitAndParallelFor) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Sum{0};
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 1000; ++I)
    Futures.push_back(Pool.submit([I, &Sum] {
      Sum += I;
      return I * 2;
    }));
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(Futures[I].get(), I * 2);
  EXPECT_EQ(Sum.load(), 999 * 1000 / 2);

  std::vector<int64_t> Out(10000, 0);
  Pool.parallelFor(Out.size(), [&](size_t I) {
    Out[I] = static_cast<int64_t>(I) * static_cast<int64_t>(I);
  });
  for (size_t I = 0; I < Out.size(); ++I)
    ASSERT_EQ(Out[I], static_cast<int64_t>(I) * static_cast<int64_t>(I));

  // A pool with an explicit single worker still drains everything.
  ThreadPool One(1);
  std::atomic<int> Count{0};
  One.parallelFor(257, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 257);
}

} // namespace
