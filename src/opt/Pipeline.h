//===- Pipeline.h - The Figure-3 optimization ordering ----------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the optimization phases in the order of the paper's Figure 3:
///
///   branch chaining; dead code elimination;
///   reorder basic blocks to minimize jumps;
///   code replication (either JUMPS or LOOPS); dead code elimination;
///   instruction selection;
///   do {
///     common subexpression elimination; dead variable elimination;
///     code motion; strength reduction; recurrences; instruction selection;
///     branch chaining; constant folding at conditional branches;
///     code replication (either JUMPS or LOOPS); dead code elimination;
///   } while (change);
///   register allocation by register coloring;
///   filling of delay slots for RISCs;
///
/// Deviation from the figure: register allocation runs once after the
/// fixpoint loop instead of inside it. With the per-invocation register
/// file (see ease/Interp.h) allocation does not change instruction counts
/// beyond removing coalesced copies, which CSE already handles for virtual
/// registers, so the measured quantities are unaffected.
///
/// Compile-throughput engineering (all byte-identical to the literal
/// loop, which PipelineOptions::Reference selects and the differential
/// tests compare against):
///  * the fixpoint battery is scheduled by a pass-invalidation matrix with
///    per-pass dirty bits, so passes whose inputs no prior change could
///    have perturbed are skipped instead of rerun (DESIGN.md section 10);
///  * analyses are served from a per-function cfg::AnalysisManager;
///  * optimizeProgram fans independent functions out over a thread pool
///    (PipelineOptions::Jobs) with per-task stats merged deterministically;
///  * optimized bodies can be memoized in a content-addressed
///    FunctionOptimizationCache keyed on (post-legalize RTL, target,
///    options), so repeated sweeps skip the pipeline entirely.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OPT_PIPELINE_H
#define CODEREP_OPT_PIPELINE_H

#include "cfg/Function.h"
#include "cfg/AnalysisManager.h"
#include "replicate/Replication.h"
#include "support/NameTable.h"
#include "target/Target.h"

#include <memory>
#include <string>

namespace coderep::opt {

struct PipelineOptions;
struct PipelineStats;
enum class Phase;

/// Content-addressed memo of optimized function bodies. The pipeline sees
/// only this interface (the implementation lives in cache/CompileCache.h,
/// which keeps the dependency pointing from cache to opt): before
/// optimizing a function, optimizeProgram asks for the key of the
/// (post-legalize body, target, options) triple, and either adopts a
/// previously optimized body wholesale or optimizes and publishes the
/// result. Keys are derived purely from content, and a deterministic
/// optimizer maps equal keys to equal bodies, so serving a hit is
/// byte-identical to recompiling. A FunctionVerifier is byte-neutral and
/// not part of keys, so a verifying compile takes hits unchecked.
/// Implementations must be thread-safe: optimizeProgram consults the cache
/// from every worker when Jobs > 1.
class FunctionOptimizationCache {
public:
  virtual ~FunctionOptimizationCache() = default;

  /// The full content key for optimizing \p F (already legalized for
  /// \p T) under \p Options. Everything that can perturb the optimized
  /// bytes must be folded in: the RTL text, frame layout, label/vreg
  /// counters, the target, and every semantic pipeline option.
  virtual std::string keyFor(const cfg::Function &F, const target::Target &T,
                             const PipelineOptions &Options) const = 0;

  /// On a hit, overwrites \p F's body and frame state with the cached
  /// optimized result and merges the entry's recorded semantic counters
  /// (replication stats, fixpoint rounds, delay-slot nops - not wall-clock
  /// phase timings, since no work was done) into \p Stats. Returns false
  /// on a miss.
  virtual bool lookup(const std::string &Key, cfg::Function &F,
                      PipelineStats *Stats) = 0;

  /// Publishes the optimized \p F under \p Key. \p Delta holds the
  /// counters this function's optimization accumulated, replayed into the
  /// caller's stats on future hits.
  virtual void store(const std::string &Key, const cfg::Function &F,
                     const PipelineStats &Delta) = 0;

  /// Unused by the pipeline; kept only because bench/e2e's TimedCache
  /// overrides them.
  virtual void noteVerified(const std::string &Key) { (void)Key; }
  virtual bool wasVerified(const std::string &Key) const {
    (void)Key;
    return false;
  }
};

/// Observes optimizeFunction for translation validation. Like
/// FunctionOptimizationCache above, only the interface lives here; the
/// implementation (a differential execution oracle) lives in
/// verify/Oracle.h, keeping the dependency pointing from verify to opt.
/// makeSession is called once per function - concurrently when Jobs > 1,
/// so it and every other method on this class must be thread-safe; the
/// returned session is driven from one worker thread only.
class FunctionVerifier {
public:
  virtual ~FunctionVerifier() = default;

  /// Per-function observer. The pipeline reports every pass invocation
  /// plus round and function boundaries; which events trigger an actual
  /// check (the verification granularity) is the implementation's choice.
  class Session {
  public:
    virtual ~Session() = default;

    /// After each pass invocation. \p Round is 0 before the Figure-3
    /// fixpoint loop, the 1-based round number inside it, and -1 for the
    /// post-loop passes (register allocation onward).
    virtual void afterPass(Phase Ph, int Round, const cfg::Function &F,
                           bool Changed) = 0;

    /// After each completed fixpoint round.
    virtual void endRound(int Round, const cfg::Function &F) = 0;

    /// After the whole pipeline, delay slots included.
    virtual void endFunction(const cfg::Function &F) = 0;
  };

  /// Called by optimizeProgram with the whole program before any function
  /// is optimized, so implementations can capture the globals the
  /// functions' memory operands refer to.
  virtual void beginProgram(const cfg::Program &P) = 0;

  /// Creates the observer for \p F, which is in its pre-optimization
  /// (post-legalize) state. May return null to skip the function.
  virtual std::unique_ptr<Session> makeSession(const cfg::Function &F) = 0;

  /// True when every check run against function \p Name came back clean;
  /// the function's journal record reports it as its "verify" outcome.
  virtual bool functionVerifiedClean(const std::string &Name) const = 0;

  /// Publishes the verifier's counters as "verify.*" metrics (called by
  /// the driver when a trace sink is attached; default no-op).
  virtual void publishMetrics(obs::MetricsRegistry &M) const { (void)M; }
};

/// The three measured configurations of the paper's Section 5.
enum class OptLevel {
  Simple, ///< standard optimizations only
  Loops,  ///< + loop-condition replication
  Jumps,  ///< + generalized code replication
};

/// Returns "SIMPLE"/"LOOPS"/"JUMPS".
const char *optLevelName(OptLevel Level);

/// Each level's lowercase name, as `--level=` and the server protocol
/// spell it.
inline constexpr support::NamedValue<OptLevel> OptLevelNames[] = {
    {"simple", OptLevel::Simple},
    {"loops", OptLevel::Loops},
    {"jumps", OptLevel::Jumps}};

/// Pipeline configuration.
struct PipelineOptions {
  OptLevel Level = OptLevel::Simple;
  replicate::ReplicationOptions Replication;

  /// Functions optimized concurrently by optimizeProgram (functions are
  /// independent, so the fan-out is safe): 1 = serial, 0 = hardware
  /// concurrency. Output is byte-identical at any value; stats are merged
  /// in function order so they are deterministic too.
  int Jobs = 1;

  /// The reference pipeline: the paper-literal Figure-3 loop with none of
  /// the compile-throughput machinery. Both pipelines run the same ten
  /// fixpoint slots; the reference differs in two ways only: every
  /// fixpoint pass reruns every round while anything changes (no
  /// pass-invalidation scheduling), and every CFG/dataflow analysis, the
  /// step-1 shortest-path matrix included, is recomputed at every query
  /// (no analysis cache). The default pipeline is differentially tested
  /// against this mode (ReferencePipelineTest.cpp) and bench_compile uses
  /// it as its baseline. Output is byte-identical either way, so like Jobs
  /// it is NOT folded into FunctionOptimizationCache keys.
  bool Reference = false;

  /// When set, optimizeProgram memoizes optimized function bodies keyed by
  /// (post-legalize RTL, target, options) content. Not owned. Hits bypass
  /// the whole per-function pipeline; see FunctionOptimizationCache.
  FunctionOptimizationCache *FunctionCache = nullptr;

  /// Observability: when Trace.Sink is set, every pass invocation becomes
  /// a span event (nested under "optimize <fn>" / "fixpoint round" spans),
  /// and the config is forwarded into Replication.Trace so the replication
  /// passes emit their decision records into the same sink.
  obs::TraceConfig Trace;

  /// Translation validation: when set, optimizeFunction opens a verifier
  /// session per function and reports every pass invocation into it. The
  /// verifier only observes (byte-neutral), so like Jobs it is NOT folded
  /// into FunctionOptimizationCache keys; cache hits therefore bypass
  /// verification, and only compiles that miss are checked. Not owned.
  /// See verify/Oracle.h and verify/VerifyCli.h.
  FunctionVerifier *Verifier = nullptr;

  /// Hidden mutation-testing flag: right after the first constant-folding
  /// invocation the pipeline reverses one conditional branch, silently
  /// miscompiling the function. Exists so the verify subsystem can prove
  /// end-to-end that it catches, attributes and reduces a real miscompile.
  /// Semantic (it changes output bytes), so it IS folded into function
  /// cache keys.
  bool MutateForTesting = false;
};

/// The individually timed passes of the pipeline, in Figure-3 order.
enum class Phase {
  BranchChaining,
  UnreachableElim,
  BlockReorder,
  MergeFallthroughs,
  Replication,
  InstructionSelection,
  RegisterAssignment,
  LocalCse,
  DeadVariableElim,
  CodeMotion,
  StrengthReduction,
  ConstantFolding,
  RegisterAllocation,
  DelaySlotFilling,
  FusedLocalSweep, ///< charged by no pass; kept because bench/e2e names it
};
inline constexpr int NumPhases = 15;

/// Returns a stable printable name, e.g. "branch chaining".
const char *phaseName(Phase P);

/// What the pipeline did (aggregated over all fixpoint rounds).
///
/// Aggregation protocol: the parallel driver gives every function its own
/// zero-initialized local stats and folds the locals into the caller's
/// struct with operator+= in function order, so the totals are
/// deterministic at any Jobs value. Nothing in the pipeline mutates a
/// shared PipelineStats from more than one thread.
struct PipelineStats {
  replicate::ReplicationStats Replication;
  /// Fixpoint rounds executed, at most MaxFixpointRounds per function.
  int FixpointIterations = 0;
  int DelaySlotNops = 0; ///< Nops emitted for unfillable delay slots

  /// Always 0: JUMPS builds one shortest-path matrix per round and caches
  /// none across rounds. Kept only because bench/e2e still reads them for
  /// replicate.sp_cache_hit_ratio; both go with that metric.
  int SpCacheHits = 0;
  int SpCacheMisses = 0;

  /// Change-driven scheduling counters for the Figure-3 fixpoint loop.
  /// The scheduled and reference drivers execute identical round counts
  /// (a change always leaves a dirty bit that survives its round) over the
  /// same ten slots, so Run + Skipped == NumFixpointPasses * rounds in
  /// both. The reference runs every slot and skips nothing; in the default
  /// schedule Skipped counts exactly the slots the invalidation matrix
  /// avoided.
  int64_t FixpointPassesRun = 0;
  int64_t FixpointPassesSkipped = 0;

  /// Final verification rounds: one per function whose scheduled fixpoint
  /// loop converged within MaxFixpointRounds. The reference loop burns
  /// the whole battery on that round to discover that nothing changes and
  /// does not count it; the scheduler executes only the passes the last
  /// change could have perturbed and skips the rest.
  int QuiescentRounds = 0;

  /// FunctionOptimizationCache behavior, when one was attached.
  int FunctionCacheHits = 0;
  int FunctionCacheMisses = 0;

  /// Per-analysis cache behavior of the AnalysisManager (hits, recomputes
  /// and invalidations for FlatCfg, dominators, loops and liveness),
  /// summed over every function.
  cfg::AnalysisCounters Analysis;

  /// Wall-clock microseconds spent inside each pass, summed over every
  /// invocation (most passes run once per fixpoint iteration).
  int64_t PhaseMicros[NumPhases] = {};

  /// Sum of PhaseMicros.
  int64_t totalMicros() const;

  /// Element-wise accumulation, used to fold per-function (or per-task)
  /// locals into a program-level aggregate.
  PipelineStats &operator+=(const PipelineStats &Other);
};

/// Number of passes inside the Figure-3 fixpoint loop (the unit of the
/// FixpointPassesRun/Skipped counters).
inline constexpr int NumFixpointPasses = 10;

/// Cap on the Figure-3 fixpoint loop's rounds per function. Function cache
/// keys still carry it (their "maxiter" line).
inline constexpr int MaxFixpointRounds = 16;

/// Optimizes every function of \p P, which must already be legal for \p T
/// (see Target::legalizeFunction). With Options.Jobs != 1 the functions
/// are fanned out over a thread pool (each gets private stats, merged back
/// in function order); with Options.FunctionCache set, previously optimized
/// identical functions are served from the cache. Output is byte-identical
/// to the serial, uncached pipeline in every configuration. With
/// Options.Trace.SessionJournal set, one record per function is appended
/// in function order.
void optimizeProgram(cfg::Program &P, const target::Target &T,
                     const PipelineOptions &Options,
                     PipelineStats *Stats = nullptr);

} // namespace coderep::opt

#endif // CODEREP_OPT_PIPELINE_H
