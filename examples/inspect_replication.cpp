//===- inspect_replication.cpp - Watching JUMPS work ------------------------------===//
//
// Runs the JUMPS algorithm step by step on a function with an unstructured
// loop (a goto-built loop with the exit test in the middle, which ordinary
// loop optimizers do not rotate) and prints the flow graph after each
// replication, plus the shortest-path matrix the algorithm plans with.
//
// Build and run:  ./build/examples/inspect_replication
//
// With --trace-out=FILE the run also records span events and one decision
// record per examined jump, exported as Chrome trace-event JSON; the
// decision log is echoed to stdout. The other observability flags
// (obs/ObsCli.h) and the pipeline-speed flags --jobs=, --pipeline-cache
// and --cache-budget= (cache/PipelineCli.h) work as in minic_compiler.
//
//===----------------------------------------------------------------------===//

#include "cache/PipelineCli.h"
#include "cfg/CfgAnalysis.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "frontend/CodeGen.h"
#include "obs/ObsCli.h"
#include "replicate/Replication.h"
#include "replicate/ShortestPaths.h"
#include "support/FlagTable.h"
#include "target/Target.h"

#include <cstdio>

using namespace coderep;

int main(int Argc, char **Argv) {
  obs::ObsCli Obs("inspect_replication");
  cache::PipelineCli Pipe;
  support::FlagTable Flags("inspect_replication");
  Pipe.addFlags(Flags);
  Obs.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  // An unstructured loop: entered in the middle via goto, exit in the
  // middle; Section 3.1 promises the generalized algorithm handles it.
  const char *Source = R"(
    int buf[32];
    int main() {
      int i, steps;
      i = 0;
      steps = 0;
      goto enter;
    top:
      buf[i & 31] = steps;
      i++;
    enter:
      steps++;
      if (steps < 50)
        goto top;
      return buf[7] + i;
    }
  )";

  cfg::Program P;
  std::string Error;
  if (!frontend::compileToRtl(Source, P, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  auto T = target::createTarget(target::TargetKind::Sparc);
  cfg::Function &F = *P.Functions[P.findFunction("main")];
  T->legalizeFunction(F);

  std::printf("=== front-end RTLs ===\n%s\n", cfg::toString(F).c_str());

  // The step-1 planning matrix.
  replicate::ShortestPaths SP(F, replicate::ShortestPaths::Strategy::Lazy,
                              Obs.sink());
  std::printf("shortest replication costs between blocks (RTLs, '-' = no "
              "path):\n      ");
  for (int V = 0; V < F.size(); ++V)
    std::printf("L%-4d", F.block(V)->Label);
  std::printf("\n");
  for (int U = 0; U < F.size(); ++U) {
    std::printf("L%-4d ", F.block(U)->Label);
    for (int V = 0; V < F.size(); ++V) {
      if (U == V)
        std::printf(".    ");
      else if (SP.cost(U, V) >= replicate::ShortestPaths::Inf)
        std::printf("-    ");
      else
        std::printf("%-4lld ", static_cast<long long>(SP.cost(U, V)));
    }
    std::printf("\n");
  }

  // Replicate one jump at a time, accumulating stats across rounds.
  replicate::ReplicationStats Total;
  int Round = 0;
  while (true) {
    replicate::ReplicationOptions Options;
    Options.MaxReplacements = 1; // one replacement per call, for inspection
    Options.Trace = Obs.config();
    int Before = Total.JumpsReplaced;
    if (!replicate::runJumps(F, Options, &Total))
      break;
    ++Round;
    std::printf("\n=== after replication %d (replaced %d, loop "
                "completions %d, rollbacks %d) ===\n%s",
                Round, Total.JumpsReplaced - Before, Total.LoopsCompleted,
                Total.RolledBackIrreducible, cfg::toString(F).c_str());
    std::printf("reducible: %s\n", cfg::isReducible(F) ? "yes" : "no");
    if (Round > 10)
      break;
  }

  // Why jumps survived, split by rejection reason (see ReplicationStats).
  std::printf("\nrejection breakdown: %d rolled back (non-reducible), "
              "%d over the length cap, %d over the growth budget, "
              "%d with no candidate\n",
              Total.RolledBackIrreducible, Total.SkippedLengthCap,
              Total.SkippedGrowthBudget, Total.SkippedNoCandidate);

  int Jumps = 0;
  for (int B = 0; B < F.size(); ++B)
    if (F.block(B)->endsWithJump())
      ++Jumps;
  std::printf("\nremaining unconditional jumps: %d\n", Jumps);

  // Where the compile time goes: run the full JUMPS pipeline on the same
  // source and print the per-phase timings the driver records.
  opt::PipelineOptions Opts;
  Opts.Trace = Obs.config();
  Pipe.apply(Opts);
  driver::Compilation C = driver::compile(
      Source, target::TargetKind::Sparc, opt::OptLevel::Jumps, &Opts);
  if (!C.ok()) {
    std::fprintf(stderr, "error: %s\n", C.Error.c_str());
    return 1;
  }
  std::printf("\n=== pipeline phase timings (JUMPS, sparc) ===\n");
  for (int I = 0; I < opt::NumPhases; ++I)
    std::printf("  %-28s %6lld us\n",
                opt::phaseName(static_cast<opt::Phase>(I)),
                static_cast<long long>(C.Pipeline.PhaseMicros[I]));
  std::printf("  %-28s %6lld us\n", "total",
              static_cast<long long>(C.Pipeline.totalMicros()));
  std::printf("analysis manager: %lld hits, %lld recomputes over %d "
              "fixpoint iterations\n",
              static_cast<long long>(C.Pipeline.Analysis.totalHits()),
              static_cast<long long>(C.Pipeline.Analysis.totalRecomputes()),
              C.Pipeline.FixpointIterations);
  std::printf("fixpoint scheduling: %lld pass bodies run, %lld skipped by "
              "the invalidation matrix, %d quiescent rounds\n",
              static_cast<long long>(C.Pipeline.FixpointPassesRun),
              static_cast<long long>(C.Pipeline.FixpointPassesSkipped),
              C.Pipeline.QuiescentRounds);

  // Echo the structured decision log when tracing was requested; the same
  // records ride in the Chrome-trace export as instant events.
  if (obs::TraceSink *Sink = Obs.sink()) {
    std::printf("\n=== replication decision log ===\n");
    for (const obs::ReplicationDecision &D : Sink->decisions())
      std::printf("%s\n", obs::formatDecision(D).c_str());
  }
  return Obs.finish() ? 0 : 1;
}
