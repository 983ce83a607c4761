//===- Liveness.cpp - Register liveness dataflow analysis -------------------===//

#include "cfg/Liveness.h"

#include "cfg/FlatCfg.h"

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::rtl;

Liveness::Liveness(const Function &F, const FlatCfg &Flat) : Universe(F) {
  int N = F.size();
  LiveIn.assign(N, BitVec(Universe.size()));
  LiveOut.assign(N, BitVec(Universe.size()));

  // Per-block use (upward exposed) / def sets.
  std::vector<BitVec> Use(N, BitVec(Universe.size()));
  std::vector<BitVec> Def(N, BitVec(Universe.size()));
  std::vector<int> UsedScratch;
  for (int B = 0; B < N; ++B) {
    const BasicBlock *BB = F.block(B);
    // Generic over Insn and the arena views so the per-RTL scan never
    // materializes a value-type copy (this runs on every recompute).
    auto scan = [&](const auto &I) {
      UsedScratch.clear();
      I.appendUsedRegs(UsedScratch);
      for (int R : UsedScratch) {
        size_t S = Universe.slot(R);
        if (!Def[B].test(S))
          Use[B].set(S);
      }
      int D = I.definedReg();
      if (D >= 0)
        Def[B].set(Universe.slot(D));
    };
    for (auto I : BB->Insns)
      scan(I);
    if (BB->DelaySlot)
      scan(*BB->DelaySlot);
  }

  // SP and FP carry the stack discipline; keep them live everywhere.
  for (int B = 0; B < N; ++B) {
    Use[B].set(Universe.slot(RegSP));
    Use[B].set(Universe.slot(RegFP));
  }

  // Iterate to fixpoint (backward). The flow graph is a flat CSR
  // snapshot; the loop body is pure word-parallel BitVec work on a reused
  // scratch set, so an iteration allocates nothing.
  BitVec In(Universe.size());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B = N - 1; B >= 0; --B) {
      for (int S : Flat.succs(B))
        Changed |= LiveOut[B].unionWith(LiveIn[S]);
      In = LiveOut[B];
      In.subtract(Def[B]);
      In.unionWith(Use[B]);
      if (!(In == LiveIn[B])) {
        std::swap(LiveIn[B], In);
        Changed = true;
      }
    }
  }
}
