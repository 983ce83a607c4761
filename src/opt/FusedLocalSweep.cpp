//===- FusedLocalSweep.cpp - Fused register-level fixpoint sweep --------------===//
//
// The four cheap register-level passes of the Figure-3 fixpoint loop -
// local CSE, dead variable elimination, branch chaining and constant
// folding - are each a linear walk over the RTL streams, and the
// pass-invalidation matrix moves their dirty bits in lockstep: every row
// of the matrix raises all four bits together, so whenever one of them is
// scheduled the others are scheduled in the same round. Dispatching them
// as four separate slots therefore buys no skipping; it only pays four
// pass dispatches (timer span, commit, verifier checkpoint, dirty-bit
// bookkeeping) where two suffice.
//
// Why two and not one: in the Figure-3 round the four passes are NOT
// adjacent - code motion, strength reduction and instruction selection
// run between dead variable elimination and branch chaining. An early
// prototype that ran all four back to back in one slot reordered branch
// chaining/constant folding across those three passes, and while the loop
// still converged, it converged to a *different* fixpoint on 3 of the 84
// suite configs (e.g. sieve/m68: a different surviving induction
// variable). The passes improve toward a joint fixpoint but are not
// confluent, so byte-identity demands order preservation. The sweep is
// therefore one pass function applied at the two points of the round where
// its sub-passes already sit: the head segment (CSE + dead variables) in
// the LocalCse slot and the tail segment (branch chaining + constant
// folding) in the BranchChain slot. Within a segment the sub-passes are
// adjacent in the oracle schedule and their dirty bits are provably in
// lockstep, so running them back to back is exactly the sequence of pass
// bodies the unfused scheduler executes - identity holds structurally,
// and the 84-config suite plus 200-seed random differential against the
// reference pipeline, which runs the four passes as separate slots, pins it
// in bytes (tests/ReferencePipelineTest.cpp).
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;

PassResult opt::runFusedLocalSweep(Function &F, const target::Target &T,
                                   AnalysisManager &AM, FusedSegment Segment) {
  // Each sub-pass is committed the way the pipeline commits a pass: epoch
  // before, body, and on a change the preserved set the sub-pass itself
  // returned. The analysis cache therefore moves through the same states
  // as when the four passes are scheduled one by one.
  bool Changed = false;
  auto step = [&](auto Pass, auto &&...Args) {
    const uint64_t Before = F.analysisEpoch();
    const PassResult R = Pass(F, Args...);
    if (R.Changed) {
      AM.commit(Before, R.Preserved);
      Changed = true;
    }
  };
  if (Segment == FusedSegment::CseDeadVars) {
    step(runLocalCse, T, AM);
    step(runDeadVariableElim, AM);
  } else {
    step(runBranchChaining);
    step(runConstantFolding);
  }
  // Every invalidation was already committed per sub-pass above; all()
  // makes the pipeline's outer commit a restamp-only no-op instead of a
  // second, coarser invalidation of entries the sub-passes kept.
  return {Changed, PreservedAnalyses::all()};
}
