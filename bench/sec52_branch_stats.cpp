//===- sec52_branch_stats.cpp - Reproduces the §5.2 SPARC statistics -----------===//
//
// Section 5.2 claims: "For the SPARC about 1.5 more instructions are found
// between branches after code replication was applied and 50% of the
// executed no-op instructions were eliminated." This harness measures the
// dynamic instructions-between-branches distance and the executed no-op
// count (unfillable delay slots) under SIMPLE / LOOPS / JUMPS.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "support/FlagTable.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

int main(int Argc, char **Argv) {
  support::FlagTable("sec52_branch_stats").parseOrExit(Argc, Argv);
  std::printf("Section 5.2 statistics (Sun SPARC)\n");
  std::printf("(paper: +1.5 instructions between branches, -50%% executed "
              "no-ops under JUMPS)\n\n");

  TextTable Table;
  Table.addRow({"program", "between-branches SIMPLE", "LOOPS", "JUMPS",
                "exec no-ops SIMPLE", "LOOPS", "JUMPS"});
  Table.addSeparator();

  double Dist[3] = {0, 0, 0};
  unsigned long long Nops[3] = {0, 0, 0};
  const opt::OptLevel Levels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                  opt::OptLevel::Jumps};
  int N = 0;
  for (const BenchProgram &BP : suite()) {
    double D[3];
    unsigned long long Nop[3];
    for (int L = 0; L < 3; ++L) {
      MeasuredRun R = measure(BP, target::TargetKind::Sparc, Levels[L]);
      D[L] = R.Dyn.insnsBetweenBranches();
      Nop[L] = R.Dyn.Nops;
      Dist[L] += D[L];
      Nops[L] += Nop[L];
    }
    Table.addRow({BP.Name, format("%.2f", D[0]), format("%.2f", D[1]),
                  format("%.2f", D[2]), format("%llu", Nop[0]),
                  format("%llu", Nop[1]), format("%llu", Nop[2])});
    ++N;
  }
  Table.addSeparator();
  Table.addRow({"average", format("%.2f", Dist[0] / N),
                format("%.2f", Dist[1] / N), format("%.2f", Dist[2] / N),
                format("%llu", Nops[0] / N), format("%llu", Nops[1] / N),
                format("%llu", Nops[2] / N)});
  std::printf("%s\n", Table.render().c_str());

  std::printf("distance change (JUMPS - SIMPLE): %+.2f instructions\n",
              (Dist[2] - Dist[0]) / N);
  if (Nops[0] > 0)
    std::printf("executed no-ops change: %+.1f%%\n",
                100.0 * (static_cast<double>(Nops[2]) -
                         static_cast<double>(Nops[0])) /
                    static_cast<double>(Nops[0]));
  return 0;
}
