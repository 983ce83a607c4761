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
// therefore one pass class applied at the two points of the round where
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

bool opt::runFusedLocalSweep(Function &F, const target::Target &T,
                             AnalysisManager &AM, FusedSegment Segment) {
  bool Changed = false;
  // Each sub-step replays its standalone wrapper's commit protocol: epoch
  // before, body, and on a change exactly the preserved-set that pass's
  // Pass::run declares (with the structural argument documented there),
  // so the analysis cache evolves through the same states as under the
  // unfused oracle.
  const PreservedAnalyses NoneButSp =
      PreservedAnalyses::none().preserve(AnalysisID::ShortestPaths);
  auto step = [&](bool StepChanged, const PreservedAnalyses &PA,
                  uint64_t Before) {
    if (StepChanged) {
      AM.commit(Before, PA);
      Changed = true;
    }
  };

  if (Segment == FusedSegment::CseDeadVars) {
    uint64_t E = F.analysisEpoch();
    step(runLocalCse(F, T, AM), NoneButSp, E);
    E = F.analysisEpoch();
    step(runDeadVariableElim(F, AM), PreservedAnalyses::cfgShape(), E);
  } else {
    uint64_t E = F.analysisEpoch();
    step(runBranchChaining(F), NoneButSp, E);
    E = F.analysisEpoch();
    step(runConstantFolding(F), NoneButSp, E);
  }
  return Changed;
}

namespace {

class FusedLocalSweepPass final : public Pass {
public:
  FusedLocalSweepPass(const target::Target &T, FusedSegment Segment)
      : T(T), Segment(Segment) {}
  const char *name() const override { return "fused local sweep"; }
  PassResult run(Function &F, AnalysisManager &AM) override {
    PassResult R;
    R.Changed = runFusedLocalSweep(F, T, AM, Segment);
    // Every invalidation was already committed per sub-step above, each
    // with its own preserved-set; reporting all() makes the pipeline's
    // outer commit a restamp-only no-op instead of a second (coarser)
    // invalidation of entries the sub-steps deliberately kept.
    R.Preserved = PreservedAnalyses::all();
    return R;
  }

private:
  const target::Target &T;
  FusedSegment Segment;
};

} // namespace

std::unique_ptr<Pass> opt::createFusedLocalSweepPass(const target::Target &T,
                                                     FusedSegment Segment) {
  return std::make_unique<FusedLocalSweepPass>(T, Segment);
}
