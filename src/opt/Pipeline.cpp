//===- Pipeline.cpp - The Figure-3 optimization ordering ---------------------===//

#include "opt/Pipeline.h"

#include "obs/Journal.h"
#include "obs/ScopedTimer.h"
#include "opt/Pass.h"
#include "support/Check.h"
#include "support/Format.h"
#include "support/ThreadPool.h"

#include <atomic>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::opt;

const char *opt::optLevelName(OptLevel Level) {
  switch (Level) {
  case OptLevel::Simple:
    return "SIMPLE";
  case OptLevel::Loops:
    return "LOOPS";
  case OptLevel::Jumps:
    return "JUMPS";
  }
  CODEREP_UNREACHABLE("bad optimization level");
}

const char *opt::phaseName(Phase P) {
  switch (P) {
  case Phase::BranchChaining:
    return "branch chaining";
  case Phase::UnreachableElim:
    return "unreachable elimination";
  case Phase::BlockReorder:
    return "block reordering";
  case Phase::MergeFallthroughs:
    return "fall-through merging";
  case Phase::Replication:
    return "code replication";
  case Phase::InstructionSelection:
    return "instruction selection";
  case Phase::RegisterAssignment:
    return "register assignment";
  case Phase::LocalCse:
    return "common subexpression elim";
  case Phase::DeadVariableElim:
    return "dead variable elimination";
  case Phase::CodeMotion:
    return "code motion";
  case Phase::StrengthReduction:
    return "strength reduction";
  case Phase::ConstantFolding:
    return "constant folding";
  case Phase::RegisterAllocation:
    return "register allocation";
  case Phase::DelaySlotFilling:
    return "delay-slot filling";
  case Phase::FusedLocalSweep:
    return "fused local sweep";
  }
  CODEREP_UNREACHABLE("bad phase");
}

int64_t PipelineStats::totalMicros() const {
  int64_t Total = 0;
  for (int64_t Us : PhaseMicros)
    Total += Us;
  return Total;
}

PipelineStats &PipelineStats::operator+=(const PipelineStats &Other) {
  Replication += Other.Replication;
  FixpointIterations += Other.FixpointIterations;
  DelaySlotNops += Other.DelaySlotNops;
  FixpointPassesRun += Other.FixpointPassesRun;
  FixpointPassesSkipped += Other.FixpointPassesSkipped;
  QuiescentRounds += Other.QuiescentRounds;
  FunctionCacheHits += Other.FunctionCacheHits;
  FunctionCacheMisses += Other.FunctionCacheMisses;
  Analysis += Other.Analysis;
  for (int I = 0; I < NumPhases; ++I)
    PhaseMicros[I] += Other.PhaseMicros[I];
  return *this;
}

namespace {

/// Metric and histogram key strings recorded once per compiled function.
/// Built once per process so the muted always-on configuration pays map
/// lookups on these keys but never rebuilds (and heap-allocates) them on
/// the compile path.
struct TelemetryKeys {
  std::string FnCompileUs = "fn.compile_us";
  std::string PassUs[NumPhases];
  std::string AnalysisHits[NumAnalysisIDs];
  std::string AnalysisRecomputes[NumAnalysisIDs];
  std::string AnalysisInvalidations[NumAnalysisIDs];
  TelemetryKeys() {
    for (int I = 0; I < NumPhases; ++I)
      PassUs[I] = std::string("pass_us.") + phaseName(static_cast<Phase>(I));
    for (int I = 0; I < NumAnalysisIDs; ++I) {
      const std::string Name = analysisName(static_cast<AnalysisID>(I));
      AnalysisHits[I] = "analysis." + Name + ".hits";
      AnalysisRecomputes[I] = "analysis." + Name + ".recomputes";
      AnalysisInvalidations[I] = "analysis." + Name + ".invalidations";
    }
  }
};

const TelemetryKeys &telemetryKeys() {
  static const TelemetryKeys K;
  return K;
}

/// The passes inside the Figure-3 fixpoint loop, in the loop's order.
enum FixpointPass {
  FpLocalCse,
  FpDeadVars,
  FpCodeMotion,
  FpStrengthReduce,
  FpInsnSelect,
  FpBranchChain,
  FpConstFold,
  FpReplicate,
  FpUnreachable,
  FpMergeFall,
};
static_assert(FpMergeFall + 1 == NumFixpointPasses,
              "FixpointPass out of sync with NumFixpointPasses");

constexpr uint16_t fpBit(int P) { return static_cast<uint16_t>(1u << P); }
constexpr uint16_t AllFixpointPasses = fpBit(NumFixpointPasses) - 1;

/// The pass-invalidation matrix: Invalidates[X] is the set of passes whose
/// input a change by X may perturb, i.e. the dirty bits a change by X
/// raises. A pass with a clear dirty bit ran clean earlier and nothing
/// since could have created new work for it, so skipping it is exactly
/// equivalent to running it and watching it report "no change".
///
/// The matrix is deliberately conservative: everything invalidates
/// everything unless there is a structural argument to the contrary, and
/// the scheduled loop is differentially tested against the
/// rerun-everything reference loop (PipelineOptions::Reference) over the
/// whole benchmark suite and hundreds of random programs. The argued
/// exceptions:
///
///  * Dead variable elimination, strength reduction and instruction
///    selection rewrite or delete plain computations but never touch a
///    transfer, create or remove a block, or retarget an edge (CSE is NOT
///    in this set: its constant propagation folds conditional branches
///    into jumps). They cannot change reachability or the
///    single-pred/single-succ structure, so they never create work for
///    unreachable-block elimination or fall-through merging.
///  * Unreachable-block elimination removes exactly the blocks not
///    reachable from the entry; deleting them cannot make a reachable
///    block unreachable, so the pass is idempotent and never re-dirties
///    itself.
///  * Fall-through merging's single right-to-left sweep reaches its own
///    fixpoint (see runMergeFallthroughs), so it never re-dirties itself
///    either.
constexpr uint16_t StructuralVictims = fpBit(FpUnreachable) | fpBit(FpMergeFall);
constexpr uint16_t Invalidates[NumFixpointPasses] = {
    /*FpLocalCse*/ AllFixpointPasses,
    /*FpDeadVars*/ AllFixpointPasses & ~StructuralVictims,
    /*FpCodeMotion*/ AllFixpointPasses,
    /*FpStrengthReduce*/ AllFixpointPasses & ~StructuralVictims,
    /*FpInsnSelect*/ AllFixpointPasses & ~StructuralVictims,
    /*FpBranchChain*/ AllFixpointPasses,
    /*FpConstFold*/ AllFixpointPasses,
    /*FpReplicate*/ AllFixpointPasses,
    /*FpUnreachable*/ AllFixpointPasses & ~fpBit(FpUnreachable),
    /*FpMergeFall*/ AllFixpointPasses & ~fpBit(FpMergeFall),
};

} // namespace

/// Runs the configured replication algorithm once. Both algorithms borrow
/// the function's analysis manager, so JUMPS and LOOPS rounds share
/// dominator and loop results with each other and with the optimizer's
/// own passes.
static PassResult runReplication(Function &F, const PipelineOptions &Options,
                                 replicate::ReplicationStats &Stats,
                                 AnalysisManager &AM) {
  // Replication splices in copied blocks and retargets edges, so a change
  // preserves no shape or dataflow result.
  if (Options.Level == OptLevel::Simple)
    return {};
  auto *Algorithm = Options.Level == OptLevel::Jumps ? replicate::runJumps
                                                     : replicate::runLoops;
  return {Algorithm(F, Options.Replication, &Stats, &AM),
          PreservedAnalyses::none()};
}

/// Optimizes one function in place (optimizeProgram's per-function step).
/// \p F must already be legal for \p T. \p Stats is this function's own
/// and starts zeroed, so every journal and metric value below is a plain
/// read of it. \p JR, when given, receives the function's journal record.
static void optimizeFunction(Function &F, const target::Target &T,
                             const PipelineOptions &OrigOptions,
                             PipelineStats &Stats, obs::JournalRecord *JR) {
  F.verify();

  // Pin the replication growth budget to the pre-optimization size so the
  // repeated replication invocations of the fixpoint loop share one
  // budget instead of compounding it.
  PipelineOptions Options = OrigOptions;
  if (Options.Replication.GrowthBaselineRtls < 0)
    Options.Replication.GrowthBaselineRtls = std::max(F.rtlCount(), 64);

  // One sink serves the whole pipeline: pass spans here, round spans and
  // decision records inside the replication passes. EvSink is the sink
  // for *span* call sites only: null when events are muted, so the muted
  // always-on configuration never pays for span names and args strings
  // (histograms, metrics, decisions and the journal keep the full Sink).
  Options.Replication.Trace = Options.Trace;
  obs::TraceSink *Sink = Options.Trace.Sink;
  obs::TraceSink *EvSink = Options.Trace.eventsActive() ? Sink : nullptr;

  std::chrono::steady_clock::time_point FnStart;
  if (Sink || JR)
    FnStart = std::chrono::steady_clock::now();

  obs::ScopedTimer FnSpan(
      EvSink, EvSink ? "optimize " + F.Name : std::string(), nullptr,
      EvSink ? format("\"function\": \"%s\", \"level\": \"%s\"",
                      F.Name.c_str(), optLevelName(Options.Level))
             : std::string());

  // Translation validation: the session snapshots F in its current
  // (post-legalize) state and re-checks it at the verifier's granularity
  // as the passes below report in.
  std::unique_ptr<FunctionVerifier::Session> VS;
  if (Options.Verifier)
    VS = Options.Verifier->makeSession(F);
  // 0 = the pre-loop passes, 1.. = fixpoint rounds, -1 = post-loop.
  int CurRound = 0;

  // The analysis registry for this function: every pass, replication
  // included, queries its analyses here.
  AnalysisManager AM(F, /*CacheEnabled=*/!Options.Reference, EvSink);

  // Per-phase pass-latency histograms. They are function-local - workers
  // never share one - and folded into the sink's registry once at the
  // end, so the hot path stays lock-free and the merged distribution is
  // deterministic (histogram merging is commutative).
  obs::Histogram PassHist[NumPhases];

  // Every pass invocation, replication included, goes through here. A
  // ScopedTimer charges the elapsed microseconds to the phase's
  // PhaseMicros slot and, with an event sink, emits a span named after the
  // phase. Inside it runs the commit protocol: record the epoch, run the
  // pass, on a change let the manager keep exactly the analyses the pass
  // vouched for, and report the invocation to the verifier.
  auto runPass = [&](Phase Ph, auto Pass, auto &&...Args) {
    int64_t &Micros = Stats.PhaseMicros[static_cast<int>(Ph)];
    const int64_t MicrosBefore = Micros;
    PassResult R;
    {
      obs::ScopedTimer Span(EvSink, phaseName(Ph), &Micros);
      const uint64_t Before = F.analysisEpoch();
      R = Pass(Args...);
      if (R.Changed)
        AM.commit(Before, R.Preserved);
      if (VS)
        VS->afterPass(Ph, CurRound, F, R.Changed);
    }
    if (Sink)
      PassHist[static_cast<int>(Ph)].record(Micros - MicrosBefore);
    return R.Changed;
  };

  // The mutation-testing self-check: reverse the first conditional branch
  // once, right after a constant-folding body, so the verify subsystem can
  // prove it detects (and attributes) a real miscompile.
  bool MutationDone = false;
  auto foldConstantsThenMutate = [&] {
    const PassResult R = runConstantFolding(F);
    if (!Options.MutateForTesting || MutationDone)
      return R;
    for (int B = 0; B < F.size(); ++B)
      for (auto I : F.block(B)->Insns)
        if (I.Op == rtl::Opcode::CondJump) {
          I.Cond = rtl::negate(I.Cond);
          F.noteRtlEdit();
          MutationDone = true;
          return PassResult{true, PreservedAnalyses::none()};
        }
    return R;
  };

  // Initial branch optimizations (Figure 3, before the loop).
  runPass(Phase::BranchChaining, runBranchChaining, F);
  runPass(Phase::UnreachableElim, runUnreachableElim, F);
  runPass(Phase::BlockReorder, runBlockReorder, F);
  runPass(Phase::MergeFallthroughs, runMergeFallthroughs, F);

  // "Code replication is performed at an early stage so that the later
  // optimizations can take advantage of the simplified control flow."
  runPass(Phase::Replication, runReplication, F, Options, Stats.Replication,
          AM);
  runPass(Phase::UnreachableElim, runUnreachableElim, F);
  runPass(Phase::MergeFallthroughs, runMergeFallthroughs, F);

  runPass(Phase::InstructionSelection, runInstructionSelection, F, T, AM);
  // "register assignment; if (change) instruction selection;"
  if (runPass(Phase::RegisterAssignment, runRegisterAssignment, F))
    runPass(Phase::InstructionSelection, runInstructionSelection, F, T, AM);

  // The fixpoint loop of Figure 3: one slot per pass, in loop order, so
  // the scheduled and reference drivers below execute identical bodies.
  auto runFixpointPass = [&](int P) -> bool {
    switch (P) {
    case FpLocalCse:
      return runPass(Phase::LocalCse, runLocalCse, F, T, AM);
    case FpDeadVars:
      return runPass(Phase::DeadVariableElim, runDeadVariableElim, F, AM);
    case FpCodeMotion:
      return runPass(Phase::CodeMotion, runCodeMotion, F, AM);
    case FpStrengthReduce:
      return runPass(Phase::StrengthReduction, runStrengthReduction, F, AM);
    case FpInsnSelect:
      return runPass(Phase::InstructionSelection, runInstructionSelection, F,
                     T, AM);
    case FpBranchChain:
      return runPass(Phase::BranchChaining, runBranchChaining, F);
    case FpConstFold:
      return runPass(Phase::ConstantFolding, foldConstantsThenMutate);
    case FpReplicate:
      return runPass(Phase::Replication, runReplication, F, Options,
                     Stats.Replication, AM);
    case FpUnreachable:
      return runPass(Phase::UnreachableElim, runUnreachableElim, F);
    case FpMergeFall:
      return runPass(Phase::MergeFallthroughs, runMergeFallthroughs, F);
    }
    CODEREP_UNREACHABLE("bad fixpoint pass");
  };

  // The reference pipeline is the paper-literal loop: rerun the whole
  // battery while anything changed. Otherwise a pass body runs only while
  // its dirty bit is set, and a change raises the dirty bits of every pass
  // it can perturb (see the Invalidates matrix above). Skipping a clean
  // pass is equivalent to running it and seeing "no change", so both
  // drivers walk the function through byte-identical states. They also
  // execute the same number of rounds: every Invalidates row contains a
  // bit at or below its own slot, so a change always survives to the
  // round end and forces the next round exactly when the reference loop
  // reruns. The entire saving is the per-round skips, and in the final
  // all-clean round - where the reference burns the full battery to
  // discover convergence - the scheduler executes only the handful of
  // passes the last change could have perturbed.
  const bool Reference = Options.Reference;
  int Iter = 0;
  uint16_t Dirty = AllFixpointPasses;
  bool Changed = true;
  while ((Reference ? Changed : Dirty != 0) &&
         Iter < MaxFixpointRounds) {
    ++Iter;
    Changed = false;
    obs::ScopedTimer IterSpan(
        EvSink, "fixpoint round", nullptr,
        EvSink ? format("\"function\": \"%s\", \"round\": %d",
                        F.Name.c_str(), Iter)
               : std::string());
    CurRound = Iter;
    for (int P = 0; P < NumFixpointPasses; ++P) {
      if (!Reference && !(Dirty & fpBit(P))) {
        ++Stats.FixpointPassesSkipped;
        continue;
      }
      Dirty = static_cast<uint16_t>(Dirty & ~fpBit(P));
      ++Stats.FixpointPassesRun;
      if (runFixpointPass(P)) {
        Changed = true;
        Dirty |= Invalidates[P];
      }
    }
    F.verify();
    if (VS)
      VS->endRound(Iter, F);
  }
  // An empty dirty set means the scheduled loop converged: its last round
  // ran only the still-dirty passes and all of them came back clean (the
  // cap-exit case leaves bits set and counts no quiescent round).
  if (!Reference && !Dirty)
    ++Stats.QuiescentRounds;
  Stats.FixpointIterations = Iter;

  CurRound = -1;
  runPass(Phase::RegisterAllocation, runRegisterAllocation, F, T, AM);
  runPass(Phase::BranchChaining, runBranchChaining, F);
  runPass(Phase::UnreachableElim, runUnreachableElim, F);
  runPass(Phase::BlockReorder, runBlockReorder, F);
  runPass(Phase::MergeFallthroughs, runMergeFallthroughs, F);

  if (T.hasDelaySlots())
    runPass(Phase::DelaySlotFilling, runDelaySlotFilling, F,
            &Stats.DelaySlotNops);
  F.verify();
  if (VS)
    VS->endFunction(F);

  Stats.Analysis = AM.counters();

  int64_t FnUs = 0;
  if (Sink || JR)
    FnUs = std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - FnStart)
               .count();

  if (Sink) {
    const TelemetryKeys &K = telemetryKeys();
    obs::HistogramRegistry &H = Sink->histograms();
    H.record(K.FnCompileUs, FnUs);
    for (int I = 0; I < NumPhases; ++I)
      if (PassHist[I].count())
        H.merge(K.PassUs[I], PassHist[I]);
  }

  const replicate::ReplicationStats &R = Stats.Replication;
  const AnalysisCounters &A = Stats.Analysis;
  if (JR) {
    JR->Fn = F.Name;
    JR->Cache = Options.FunctionCache ? "miss" : "off";
    JR->Verify = !Options.Verifier ? "off"
                 : Options.Verifier->functionVerifiedClean(F.Name) ? "pass"
                                                                   : "fail";
    // Every phase appears (even at 0 us) so record keys are stable for the
    // golden test; only the timing values vary run to run.
    JR->PhaseUs.reserve(NumPhases + 1);
    JR->Counters.reserve(15);
    JR->PhaseUs.emplace_back("total", FnUs);
    for (int I = 0; I < NumPhases; ++I)
      JR->PhaseUs.emplace_back(phaseName(static_cast<Phase>(I)),
                               Stats.PhaseMicros[I]);
    auto C = [&](const char *Name, int64_t Value) {
      JR->Counters.emplace_back(Name, Value);
    };
    C("repl.jumps_replaced", R.JumpsReplaced);
    C("repl.rolled_back_irreducible", R.RolledBackIrreducible);
    C("repl.skipped_length_cap", R.SkippedLengthCap);
    C("repl.skipped_growth_budget", R.SkippedGrowthBudget);
    C("repl.skipped_no_candidate", R.SkippedNoCandidate);
    C("repl.loops_completed", R.LoopsCompleted);
    C("repl.step5_retargets", R.Step5Retargets);
    C("repl.stub_jumps_added", R.StubJumpsAdded);
    C("fixpoint.rounds", Iter);
    C("fixpoint.passes_run", Stats.FixpointPassesRun);
    C("fixpoint.passes_skipped", Stats.FixpointPassesSkipped);
    C("analysis.hits", A.totalHits());
    C("analysis.recomputes", A.totalRecomputes());
    C("analysis.invalidations", A.totalInvalidations());
    C("rtls_out", F.rtlCount());
  }

  if (Sink) {
    const TelemetryKeys &K = telemetryKeys();
    obs::MetricsRegistry &M = Sink->metrics();
    M.add("pipeline.fixpoint_passes_run", Stats.FixpointPassesRun);
    M.add("pipeline.fixpoint_passes_skipped", Stats.FixpointPassesSkipped);
    M.add("pipeline.quiescent_rounds", Stats.QuiescentRounds);
    for (int I = 0; I < NumAnalysisIDs; ++I) {
      M.add(K.AnalysisHits[I], A.Hits[I]);
      M.add(K.AnalysisRecomputes[I], A.Recomputes[I]);
      M.add(K.AnalysisInvalidations[I], A.Invalidations[I]);
    }
  }
}

void opt::optimizeProgram(Program &P, const target::Target &T,
                          const PipelineOptions &Options,
                          PipelineStats *Stats) {
  const size_t N = P.Functions.size();
  FunctionOptimizationCache *Cache = Options.FunctionCache;
  obs::Journal *SessionJournal = Options.Trace.SessionJournal;
  if (Options.Verifier)
    Options.Verifier->beginProgram(P);

  // Journal slots filled by the workers, appended below in function order
  // so the journal is deterministic at any job count.
  std::vector<obs::JournalRecord> Records(SessionJournal ? N : 0);

  // Optimizes one function into private stats: cache consult first, the
  // full pipeline on a miss. Locals keep the aggregation race-free under
  // the fan-out below and give the cache an exact per-function delta.
  auto optimizeOne = [&](size_t I, Function &F, PipelineStats &Local) {
    obs::JournalRecord *JR = SessionJournal ? &Records[I] : nullptr;
    if (!Cache) {
      optimizeFunction(F, T, Options, Local, JR);
      return;
    }
    const std::string Key = Cache->keyFor(F, T, Options);
    bool Hit;
    if (obs::TraceSink *Sink = Options.Trace.Sink) {
      // Lookup latency distribution: histogram recording is commutative,
      // so concurrent workers cannot perturb the exported quantiles.
      const auto T0 = std::chrono::steady_clock::now();
      Hit = Cache->lookup(Key, F, &Local);
      Sink->histograms().record(
          "cache.lookup_us",
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - T0)
              .count());
    } else {
      Hit = Cache->lookup(Key, F, &Local);
    }
    if (Hit) {
      ++Local.FunctionCacheHits;
      if (JR) {
        JR->Fn = F.Name;
        JR->Cache = "hit";
        JR->Verify = "off"; // a hit skips the pipeline, so nothing ran
        JR->Counters.emplace_back("rtls_out", F.rtlCount());
      }
      return;
    }
    optimizeFunction(F, T, Options, Local, JR);
    ++Local.FunctionCacheMisses;
    Cache->store(Key, F, Local);
  };

  unsigned Jobs = Options.Jobs == 0 ? std::thread::hardware_concurrency()
                                    : static_cast<unsigned>(Options.Jobs);
  if (Jobs < 1)
    Jobs = 1;
  if (Jobs > N)
    Jobs = static_cast<unsigned>(N);

  std::vector<PipelineStats> Locals(N);
  if (Jobs <= 1) {
    for (size_t I = 0; I < N; ++I)
      optimizeOne(I, *P.Functions[I], Locals[I]);
  } else {
    // Functions are independent, so fan them out; every worker writes only
    // its own function and stats slot. Reduction below runs in function
    // order, so program bytes AND aggregated stats are identical to the
    // serial driver at any worker count.
    ThreadPool Pool(Jobs);
    std::atomic<unsigned> NextWorker{0};
    obs::TraceSink *Sink = Options.Trace.Sink;
    Pool.parallelFor(N, [&](size_t I) {
      if (Sink) {
        // Name each recording worker's track once, in first-use order, so
        // Chrome-trace exports show the parallel optimization schedule.
        thread_local const obs::TraceSink *NamedFor = nullptr;
        if (NamedFor != Sink) {
          NamedFor = Sink;
          Sink->nameCurrentThread(
              format("opt worker %u", NextWorker.fetch_add(1)));
        }
      }
      optimizeOne(I, *P.Functions[I], Locals[I]);
    });
  }

  int64_t CacheHits = 0, CacheMisses = 0;
  for (const PipelineStats &L : Locals) {
    CacheHits += L.FunctionCacheHits;
    CacheMisses += L.FunctionCacheMisses;
    if (Stats)
      *Stats += L;
  }
  if (SessionJournal)
    for (obs::JournalRecord &R : Records)
      SessionJournal->append(std::move(R));
  if (obs::TraceSink *Sink = Options.Trace.Sink; Sink && Cache) {
    Sink->metrics().add("pipeline_cache.hits", CacheHits);
    Sink->metrics().add("pipeline_cache.misses", CacheMisses);
  }
}
