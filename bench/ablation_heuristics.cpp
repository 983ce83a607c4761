//===- ablation_heuristics.cpp - Step-2 path-choice ablation ----------------------===//
//
// JUMPS step 2 chooses between a sequence "favoring returns" and one
// "favoring loops"; the paper leaves the choice to heuristics. This
// ablation measures all three policies (shortest / always returns first /
// always loops first) over the suite: static growth and dynamic savings
// relative to SIMPLE.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "support/FlagTable.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

int main(int Argc, char **Argv) {
  support::FlagTable("ablation_heuristics").parseOrExit(Argc, Argv);
  std::printf("Ablation: JUMPS step-2 sequence choice heuristic "
              "(Sun SPARC)\n\n");

  struct Policy {
    replicate::PathChoice Choice;
    bool IndirectEndings;
    const char *Name;
  };
  const Policy Policies[] = {
      {replicate::PathChoice::Shortest, false, "shortest"},
      {replicate::PathChoice::FavorReturns, false, "favor-returns"},
      {replicate::PathChoice::FavorLoops, false, "favor-loops"},
      {replicate::PathChoice::Shortest, true, "shortest+indirect(S6)"},
  };

  TextTable Table;
  Table.addRow({"policy", "static change", "dynamic change",
                "jumps replaced", "rollbacks"});
  Table.addSeparator();

  for (const Policy &P : Policies) {
    double StatDelta = 0, DynDelta = 0;
    int Replaced = 0, Rollbacks = 0, N = 0;
    for (const BenchProgram &BP : suite()) {
      MeasuredRun S = measure(BP, target::TargetKind::Sparc,
                              opt::OptLevel::Simple);
      opt::PipelineOptions Options;
      Options.Replication.Heuristic = P.Choice;
      Options.Replication.AllowIndirectEndings = P.IndirectEndings;
      driver::Compilation C = driver::compile(
          BP.Source, target::TargetKind::Sparc, opt::OptLevel::Jumps,
          &Options);
      if (!C.ok()) {
        std::fprintf(stderr, "compile error: %s\n", C.Error.c_str());
        return 1;
      }
      ease::RunOptions RO;
      RO.Input = BP.Input;
      ease::RunResult R = ease::run(*C.Prog, RO);
      if (!R.ok()) {
        std::fprintf(stderr, "trap in %s: %s\n", BP.Name.c_str(),
                     R.TrapMessage.c_str());
        return 1;
      }
      StatDelta += 100.0 *
                   (C.Static.Instructions - S.Static.Instructions) /
                   S.Static.Instructions;
      DynDelta += 100.0 *
                  (static_cast<double>(R.Stats.Executed) -
                   static_cast<double>(S.Dyn.Executed)) /
                  static_cast<double>(S.Dyn.Executed);
      Replaced += C.Pipeline.Replication.JumpsReplaced;
      Rollbacks += C.Pipeline.Replication.RolledBackIrreducible;
      ++N;
    }
    Table.addRow({P.Name, signedPercent(StatDelta / N),
                  signedPercent(DynDelta / N), format("%d", Replaced),
                  format("%d", Rollbacks)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}
