//===- Replication.h - Code replication (LOOPS and JUMPS) ------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's two replication algorithms:
///
///  * LOOPS - the conventional optimization: an unconditional jump entering
///    or closing a natural loop is replaced by a copy of the loop's
///    termination condition with the condition reversed.
///
///  * JUMPS - the paper's generalized algorithm (Section 4): every
///    unconditional jump is replaced by the cheapest replicated block
///    sequence that either ends in a return ("favoring returns") or links
///    up with the block positionally following the jump ("favoring
///    loops"), with whole-loop inclusion to keep loops natural (step 3),
///    branch reversal and label remapping in the copies (step 4),
///    retargeting of in-loop branches into partial copies (step 5), and a
///    reducibility check with rollback (step 6).
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_REPLICATE_REPLICATION_H
#define CODEREP_REPLICATE_REPLICATION_H

#include "cfg/AnalysisCache.h"
#include "cfg/Function.h"
#include "obs/Trace.h"

namespace coderep::replicate {

/// Validation hook invoked after every applied replication rewrite. The
/// interface lives here (not in verify/) so the replicate layer stays free
/// of a dependency on the validator's implementation, mirroring how
/// opt::FunctionVerifier decouples the pipeline from verify::Oracle; the
/// concrete checker (verify::BisimValidator) runs a lockstep CFG
/// bisimulation of the pre/post functions.
class ReplicationValidator {
public:
  virtual ~ReplicationValidator();

  /// Called with the function state immediately before (\p Before) and
  /// after (\p After) one applied rewrite. \p Algorithm is "JUMPS" or
  /// "LOOPS"; \p Round is the 1-based replication round.
  virtual void checkApplied(const cfg::Function &Before,
                            const cfg::Function &After,
                            const char *Algorithm, int Round) = 0;
};

/// Which replacement sequence JUMPS step 2 prefers when both exist.
enum class PathChoice {
  Shortest,     ///< minimize replicated RTLs (the paper's stated goal)
  FavorReturns, ///< always try the return-terminated sequence first
  FavorLoops,   ///< always try the sequence linking to the next block first
};

/// Tunables for JUMPS.
struct ReplicationOptions {
  PathChoice Heuristic = PathChoice::Shortest;

  /// Maximum RTLs a single replication may copy (-1 = unlimited). The
  /// paper's Section 6 proposes this cap to trade dynamic improvement for
  /// code size; bench/paper_tables' length-cap ablation sweeps it.
  int64_t MaxSequenceRtls = -1;

  /// Backstop on total function growth, as a multiple of the baseline RTL
  /// count. The baseline is GrowthBaselineRtls when set (the driver pins it
  /// to the pre-replication size so repeated invocations inside the
  /// Figure-3 fixpoint loop cannot compound), else the size when this
  /// invocation started.
  double MaxGrowthFactor = 8.0;

  /// Growth baseline in RTLs; -1 derives it from the function.
  int64_t GrowthBaselineRtls = -1;

  /// Backstop on replications per invocation.
  int MaxReplacements = 2000;

  /// Section 6 extension: allow a replication sequence to end at a block
  /// terminating in an indirect jump (the jump table is not copied; the
  /// copied indirect jump targets the original labels). Off by default to
  /// match the paper's measured configuration ("the replication of
  /// indirect jumps has not yet been implemented").
  bool AllowIndirectEndings = false;

  /// Observability: when Trace.Sink is set, every examined jump emits a
  /// structured decision record (candidates, costs, fates, rollbacks) and
  /// replication rounds emit nested span events. A default-constructed
  /// TraceConfig disables all of it at the cost of one pointer test.
  obs::TraceConfig Trace;

  /// When set, every applied rewrite is reported with its pre/post
  /// function states. Costs one clone per applied rewrite, so this is a
  /// verification-mode knob, not a production default.
  ReplicationValidator *Validator = nullptr;
};

/// Counters describing what the pass did. The three rejection counters
/// split the "did not replicate" aggregate by reason, so harnesses can
/// report *why* jumps survived (step-6 non-reducibility vs. the Section-6
/// length cap vs. the loop-copy growth backstop).
struct ReplicationStats {
  int JumpsReplaced = 0;          ///< successfully replaced jumps
  int RolledBackIrreducible = 0;  ///< step-6 rollbacks (non-reducible result)
  int SkippedLengthCap = 0;       ///< candidates over MaxSequenceRtls
  int SkippedGrowthBudget = 0;    ///< candidates over the loop-blowup budget
  int SkippedNoCandidate = 0;     ///< jumps with no viable sequence
  int LoopsCompleted = 0;         ///< step-3 whole-loop inclusions
  int Step5Retargets = 0;         ///< step-5 branch retargets
  int StubJumpsAdded = 0;         ///< explicit jumps materialized in copies

  /// Element-wise accumulation (used by opt::PipelineStats::merge to fold
  /// per-function locals into a program-level aggregate).
  ReplicationStats &operator+=(const ReplicationStats &O) {
    JumpsReplaced += O.JumpsReplaced;
    RolledBackIrreducible += O.RolledBackIrreducible;
    SkippedLengthCap += O.SkippedLengthCap;
    SkippedGrowthBudget += O.SkippedGrowthBudget;
    SkippedNoCandidate += O.SkippedNoCandidate;
    LoopsCompleted += O.LoopsCompleted;
    Step5Retargets += O.Step5Retargets;
    StubJumpsAdded += O.StubJumpsAdded;
    return *this;
  }
};

class ShortestPathsCache;

/// Generalized code replication. Returns true if the function changed.
/// \p Cache, when given, carries the step-1 shortest-path matrix across
/// rounds and across repeated invocations from the optimizer's fixpoint
/// loop; it is revalidated against the flow graph before every reuse, so
/// results are identical with or without it.
/// \p Analyses, when given, serves (and is kept coherent with) the natural
/// loop information the rounds need: step-6 rollbacks restore the cache to
/// its pre-attempt snapshot, and without a cache every query recomputes.
bool runJumps(cfg::Function &F, const ReplicationOptions &Options = {},
              ReplicationStats *Stats = nullptr,
              ShortestPathsCache *Cache = nullptr,
              cfg::AnalysisCache *Analyses = nullptr);

/// Loop-condition replication only. Returns true if the function changed.
/// \p Trace, when enabled, receives one decision record per rewritten jump.
/// \p Analyses, when given, serves the per-round loop queries.
/// \p Validator, when given, is told about every applied rewrite.
bool runLoops(cfg::Function &F, ReplicationStats *Stats = nullptr,
              const obs::TraceConfig &Trace = {},
              cfg::AnalysisCache *Analyses = nullptr,
              ReplicationValidator *Validator = nullptr);

} // namespace coderep::replicate

#endif // CODEREP_REPLICATE_REPLICATION_H
