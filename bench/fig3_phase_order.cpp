//===- fig3_phase_order.cpp - Exercises the Figure 3 ordering --------------------===//
//
// Figure 3 is the order of optimizations. This harness compiles one
// benchmark at each level and reports what the pipeline did: fixpoint
// iterations, replication activity (replacements, loop completions,
// step-5 retargets, step-6 rollbacks) and delay-slot fill results -
// demonstrating that replication is re-invoked inside the loop and that
// the final invocation handles jumps the earlier rounds skipped.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "support/FlagTable.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

int main(int Argc, char **Argv) {
  support::FlagTable("fig3_phase_order").parseOrExit(Argc, Argv);
  std::printf("Figure 3: Order of Optimizations - pipeline activity\n\n");
  TextTable Table;
  Table.addRow({"program", "level", "fixpoint iters", "jumps replaced",
                "loops completed", "step5 retargets", "step6 rollbacks",
                "skipped", "stub jumps"});
  Table.addSeparator();
  for (const BenchProgram &BP : suite()) {
    for (opt::OptLevel Level : {opt::OptLevel::Loops, opt::OptLevel::Jumps}) {
      driver::Compilation C =
          driver::compile(BP.Source, target::TargetKind::Sparc, Level);
      if (!C.ok()) {
        std::fprintf(stderr, "compile error: %s\n", C.Error.c_str());
        return 1;
      }
      const replicate::ReplicationStats &R = C.Pipeline.Replication;
      Table.addRow({BP.Name, opt::optLevelName(Level),
                    format("%d", C.Pipeline.FixpointIterations),
                    format("%d", R.JumpsReplaced),
                    format("%d", R.LoopsCompleted),
                    format("%d", R.Step5Retargets),
                    format("%d", R.RolledBackIrreducible),
                    format("%d", R.SkippedNoCandidate),
                    format("%d", R.StubJumpsAdded)});
    }
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}
