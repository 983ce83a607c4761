//===- table5_instructions.cpp - Reproduces Table 5 ----------------------------===//
//
// "Number of Static and Dynamic Instructions": per program, the SIMPLE
// instruction counts and the percentage change under LOOPS and JUMPS, for
// both targets. The shape to reproduce: LOOPS grows code a few percent,
// JUMPS by tens of percent; both shrink dynamic counts, JUMPS by roughly
// twice as much as LOOPS on average.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "obs/ObsCli.h"
#include "support/FlagTable.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

int main(int Argc, char **Argv) {
  obs::ObsCli Obs("table5_instructions");
  support::FlagTable Flags("table5_instructions");
  Obs.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  std::printf("Table 5: Number of Static and Dynamic Instructions\n");
  std::printf("(paper averages: static +3.97%%/+56.53%% (SPARC), "
              "+2.55%%/+49.37%% (68020);\n dynamic -2.39%%/-5.71%% (SPARC), "
              "-3.30%%/-6.94%% (68020) for LOOPS/JUMPS)\n\n");

  for (target::TargetKind TK :
       {target::TargetKind::Sparc, target::TargetKind::M68}) {
    std::printf("%s\n",
                TK == target::TargetKind::Sparc ? "Sun SPARC"
                                                : "Motorola 68020");
    TextTable Table;
    Table.addRow({"program", "static SIMPLE", "LOOPS", "JUMPS",
                  "dynamic SIMPLE", "LOOPS", "JUMPS"});
    Table.addSeparator();

    // Fan the 14 x 3 independent compile+run measurements out across the
    // thread pool; results come back in request order, so the reduction
    // below stays in Table-5 order.
    std::vector<MeasureRequest> Requests;
    for (const BenchProgram &BP : suite())
      for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Loops,
                                  opt::OptLevel::Jumps})
        Requests.push_back({&BP, TK, Level, {}, nullptr});
    std::vector<MeasuredRun> Runs = measureAll(Requests, 0, Obs.sink());

    double StatL = 0, StatJ = 0, DynL = 0, DynJ = 0;
    long long StatSimpleSum = 0;
    unsigned long long DynSimpleSum = 0;
    int N = 0;
    for (const BenchProgram &BP : suite()) {
      MeasuredRun &S = Runs[static_cast<size_t>(N) * 3];
      MeasuredRun &L = Runs[static_cast<size_t>(N) * 3 + 1];
      MeasuredRun &J = Runs[static_cast<size_t>(N) * 3 + 2];
      double SL = 100.0 * (L.Static.Instructions - S.Static.Instructions) /
                  S.Static.Instructions;
      double SJ = 100.0 * (J.Static.Instructions - S.Static.Instructions) /
                  S.Static.Instructions;
      double DL = 100.0 *
                  (static_cast<double>(L.Dyn.Executed) -
                   static_cast<double>(S.Dyn.Executed)) /
                  static_cast<double>(S.Dyn.Executed);
      double DJ = 100.0 *
                  (static_cast<double>(J.Dyn.Executed) -
                   static_cast<double>(S.Dyn.Executed)) /
                  static_cast<double>(S.Dyn.Executed);
      Table.addRow({BP.Name, format("%d", S.Static.Instructions),
                    signedPercent(SL), signedPercent(SJ),
                    format("%llu", static_cast<unsigned long long>(
                                       S.Dyn.Executed)),
                    signedPercent(DL), signedPercent(DJ)});
      StatL += SL;
      StatJ += SJ;
      DynL += DL;
      DynJ += DJ;
      StatSimpleSum += S.Static.Instructions;
      DynSimpleSum += S.Dyn.Executed;
      ++N;
    }
    Table.addSeparator();
    Table.addRow({"average", format("%lld", StatSimpleSum / N),
                  signedPercent(StatL / N), signedPercent(StatJ / N),
                  format("%llu", DynSimpleSum / N), signedPercent(DynL / N),
                  signedPercent(DynJ / N)});
    std::printf("%s\n", Table.render().c_str());
  }
  return Obs.finish() ? 0 : 1;
}
