//===- Pass.h - The standard VPO optimization passes ------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "standard code optimization techniques" of the paper's Section 5:
/// branch chaining, dead code elimination, basic-block reordering,
/// instruction selection (RTL combining), common subexpression elimination,
/// dead variable elimination, code motion, strength reduction, constant
/// folding (including at conditional branches), register allocation by
/// coloring and delay-slot filling.
///
/// Each pass is one function, `PassResult runX(F, ...)`, that takes the
/// AnalysisManager and the target only when it uses them. It serves every
/// analysis it consumes from the manager's cache and returns whether it
/// changed the function and which cached analyses that change preserved;
/// the structural argument for each claim is the comment at its return.
/// The pipeline commits the result through the protocol of
/// AnalysisManager.h. A pass with mid-run edit bursts that precede
/// further analysis queries commits them itself with AM.noteEdit.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OPT_PASS_H
#define CODEREP_OPT_PASS_H

#include "cfg/Function.h"
#include "opt/AnalysisManager.h"
#include "target/Target.h"

namespace coderep::opt {

/// What one pass invocation reports back to the pipeline.
struct PassResult {
  /// True when the function changed (drives the Figure-3 fixpoint loop).
  bool Changed = false;

  /// Which cached analyses the change left valid; consulted only when
  /// Changed (an unchanged pass trivially preserves everything). Every
  /// claim carries a structural argument at the pass's return and is
  /// differentially tested against the always-recompute reference.
  PreservedAnalyses Preserved = PreservedAnalyses::none();
};

/// Retargets branches whose destination block only transfers control
/// further ("branch chaining"), and removes conditional branches to the
/// fall-through block.
PassResult runBranchChaining(cfg::Function &F);

/// Removes blocks unreachable from the entry.
PassResult runUnreachableElim(cfg::Function &F);

/// Reorders basic blocks to turn unconditional jumps into fall-throughs
/// where possible (the paper's "reorder basic blocks to minimize jumps").
PassResult runBlockReorder(cfg::Function &F);

/// Merges a block into its predecessor when control can only flow between
/// them (grows basic blocks; enables local CSE and delay-slot filling).
PassResult runMergeFallthroughs(cfg::Function &F);

/// Constant folding: evaluates ALU RTLs on constants, simplifies algebraic
/// identities, and folds comparisons of two constants into unconditional
/// control flow ("constant folding at conditional branches", §3.3.1).
PassResult runConstantFolding(cfg::Function &F);

/// Instruction selection in the VPO sense: combines adjacent RTLs into one
/// RTL whenever the combination is a legal instruction on \p T (folding
/// loads/immediates/address arithmetic into users on the CISC target).
PassResult runInstructionSelection(cfg::Function &F, const target::Target &T,
                                   AnalysisManager &AM);

/// Common subexpression elimination with copy/constant propagation over
/// extended basic blocks (a block inherits the value table of a unique
/// predecessor, so replicated code paths simplify, §3.3.2). Needs the
/// target to keep every rewritten RTL legal.
PassResult runLocalCse(cfg::Function &F, const target::Target &T,
                       AnalysisManager &AM);

/// Deletes assignments to registers that are never subsequently used
/// ("dead variable elimination").
PassResult runDeadVariableElim(cfg::Function &F, AnalysisManager &AM);

/// Loop-invariant code motion into loop preheaders ("code motion"); creates
/// preheader blocks on demand (§3.3.3 discusses their placement after
/// replication). Commits its own edits between hoists.
PassResult runCodeMotion(cfg::Function &F, AnalysisManager &AM);

/// Strength reduction: multiplications by powers of two become shifts, and
/// multiplications of loop induction variables become running sums.
PassResult runStrengthReduction(cfg::Function &F, AnalysisManager &AM);

/// The two segments of the fused register-level sweep, matching where its
/// sub-passes sit in the Figure-3 round (they are not adjacent there -
/// code motion, strength reduction and instruction selection run in
/// between - and the passes are not confluent, so fusing across that gap
/// would change output bytes; see FusedLocalSweep.cpp).
enum class FusedSegment {
  CseDeadVars,          ///< local CSE, then dead variable elimination
  BranchChainConstFold, ///< branch chaining, then constant folding
};

/// The fused register-level sweep (the default pipeline's
/// Phase::FusedLocalSweep slots): runs one segment's sub-passes back to
/// back as a single schedulable unit, committing each changed sub-pass's
/// own result to \p AM. Byte-identical to scheduling the passes
/// individually, as PipelineOptions::Reference does.
PassResult runFusedLocalSweep(cfg::Function &F, const target::Target &T,
                              AnalysisManager &AM, FusedSegment Segment);

/// Register assignment (Figure 3): promotes the word-sized scalar locals
/// and parameters whose address is never taken (Function::PromotableLocals)
/// from their frame slots into virtual registers, inserting entry loads
/// for parameters. This is what puts loop counters into registers, as in
/// the paper's Table 1 ("d[1]" holding i).
PassResult runRegisterAssignment(cfg::Function &F);

/// Graph-coloring register allocation: maps every virtual register onto the
/// target's allocatable registers, spilling to the frame when needed.
/// Afterwards the function contains no virtual registers. Commits each
/// spill burst itself before rebuilding liveness.
PassResult runRegisterAllocation(cfg::Function &F, const target::Target &T,
                                 AnalysisManager &AM);

/// Fills the architectural delay slot of every transfer with an independent
/// RTL from the same block, or a Nop ("for the SPARC processor, delay slots
/// after transfers of control were filled"). Only meaningful for targets
/// with delay slots. Returns the number of Nops emitted via \p NopsOut.
PassResult runDelaySlotFilling(cfg::Function &F, int *NopsOut = nullptr);

} // namespace coderep::opt

#endif // CODEREP_OPT_PASS_H
