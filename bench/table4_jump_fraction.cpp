//===- table4_jump_fraction.cpp - Reproduces Table 4 ---------------------------===//
//
// "Percent of Instructions that are Unconditional Jumps": static and
// dynamic fraction of unconditional jumps under SIMPLE / LOOPS / JUMPS,
// averaged over the benchmark suite, with standard deviations, for both
// targets - the same rows as the paper's Table 4.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "support/FlagTable.h"
#include "support/Format.h"

#include <cmath>
#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

namespace {

struct Row {
  double Mean = 0;
  double StdDev = 0;
};

Row meanStd(const std::vector<double> &Values) {
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  double Mean = Sum / static_cast<double>(Values.size());
  double Var = 0;
  for (double V : Values)
    Var += (V - Mean) * (V - Mean);
  Var /= static_cast<double>(Values.size());
  return {Mean, std::sqrt(Var)};
}

} // namespace

int main(int Argc, char **Argv) {
  support::FlagTable("table4_jump_fraction").parseOrExit(Argc, Argv);
  std::printf("Table 4: Percent of Instructions that are Unconditional "
              "Jumps\n");
  std::printf("(paper, SPARC dynamic: SIMPLE 3.28%%, LOOPS 1.89%%, JUMPS "
              "0.10%%;\n 68020 dynamic: SIMPLE 4.14%%, LOOPS 2.47%%, JUMPS "
              "0.13%%)\n\n");

  const opt::OptLevel Levels[] = {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                  opt::OptLevel::Jumps};

  for (target::TargetKind TK :
       {target::TargetKind::Sparc, target::TargetKind::M68}) {
    const char *TName = TK == target::TargetKind::Sparc ? "Sun SPARC"
                                                        : "Motorola 68020";
    TextTable Table;
    Table.addRow({TName, "SIMPLE", "LOOPS", "JUMPS"});
    Table.addSeparator();

    std::vector<double> StaticPct[3], DynPct[3];
    for (const BenchProgram &BP : suite()) {
      for (int L = 0; L < 3; ++L) {
        MeasuredRun R = measure(BP, TK, Levels[L]);
        StaticPct[L].push_back(100.0 * R.Static.UncondJumps /
                               std::max(1, R.Static.Instructions));
        DynPct[L].push_back(100.0 * static_cast<double>(R.Dyn.UncondJumps) /
                            std::max<uint64_t>(1, R.Dyn.Executed));
      }
    }
    for (int Kind = 0; Kind < 2; ++Kind) {
      Row Rows[3];
      for (int L = 0; L < 3; ++L)
        Rows[L] = meanStd(Kind == 0 ? StaticPct[L] : DynPct[L]);
      Table.addRow({Kind == 0 ? "static  average" : "dynamic average",
                    format("%.2f%%", Rows[0].Mean),
                    format("%.2f%%", Rows[1].Mean),
                    format("%.2f%%", Rows[2].Mean)});
      Table.addRow({"        std. deviation",
                    format("%.2f%%", Rows[0].StdDev),
                    format("%.2f%%", Rows[1].StdDev),
                    format("%.2f%%", Rows[2].StdDev)});
    }
    std::printf("%s\n", Table.render().c_str());
  }
  return 0;
}
