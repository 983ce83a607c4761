//===- table6_cache.cpp - Reproduces Table 6 -----------------------------------===//
//
// "Percent Change in Miss Ratio and Instruction Fetch Cost for
// Direct-Mapped Caches": 1/2/4/8 Kb direct-mapped caches with 16-byte
// lines, hit cost 1, miss penalty 10, context switches flushing the cache
// every 10,000 time units (on/off). Reported per the paper: miss-ratio
// difference in percentage points and fetch-cost percentage change of
// LOOPS and JUMPS relative to SIMPLE, averaged over the suite. The shape
// to reproduce: JUMPS hurts the 1Kb cache (capacity misses from the
// larger code) but *reduces* overall fetch cost for larger caches.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "support/FlagTable.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

namespace {

std::vector<cache::CacheConfig> allConfigs() {
  // 4 sizes x context switches {on, off}: index = size*2 + (on ? 0 : 1).
  std::vector<cache::CacheConfig> Out;
  for (uint32_t Size : paperCacheSizes())
    for (bool Ctx : {true, false}) {
      cache::CacheConfig C;
      C.SizeBytes = Size;
      C.ContextSwitches = Ctx;
      Out.push_back(C);
    }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  support::FlagTable("table6_cache").parseOrExit(Argc, Argv);
  std::printf("Table 6: Percent Change in Miss Ratio and Instruction Fetch "
              "Cost for Direct-Mapped Caches\n");
  std::printf("(paper, SPARC ctx-on fetch cost: LOOPS -2.73/-3.80/-2.26/"
              "-2.40%%, JUMPS +3.44/-5.24/-2.94/-3.98%% for 1/2/4/8Kb)\n\n");

  std::vector<cache::CacheConfig> Configs = allConfigs();

  for (target::TargetKind TK :
       {target::TargetKind::Sparc, target::TargetKind::M68}) {
    const char *TName =
        TK == target::TargetKind::Sparc ? "Sun SPARC" : "Motorola 68020";

    // Accumulators: [level 0=LOOPS,1=JUMPS][config] of per-program deltas.
    const int NC = static_cast<int>(Configs.size());
    std::vector<double> MissDelta[2], CostDelta[2];
    for (int L = 0; L < 2; ++L) {
      MissDelta[L].assign(NC, 0.0);
      CostDelta[L].assign(NC, 0.0);
    }
    int N = 0;
    for (const BenchProgram &BP : suite()) {
      MeasuredRun S = measure(BP, TK, opt::OptLevel::Simple, Configs);
      MeasuredRun L = measure(BP, TK, opt::OptLevel::Loops, Configs);
      MeasuredRun J = measure(BP, TK, opt::OptLevel::Jumps, Configs);
      for (int C = 0; C < NC; ++C) {
        const MeasuredRun *Rs[2] = {&L, &J};
        for (int Lvl = 0; Lvl < 2; ++Lvl) {
          // Miss ratio difference in percentage points (as in the paper).
          MissDelta[Lvl][C] += 100.0 * (Rs[Lvl]->Caches[C].missRatio() -
                                        S.Caches[C].missRatio());
          // Fetch cost as a percent change.
          CostDelta[Lvl][C] +=
              100.0 *
              (static_cast<double>(Rs[Lvl]->Caches[C].FetchCost) -
               static_cast<double>(S.Caches[C].FetchCost)) /
              static_cast<double>(S.Caches[C].FetchCost);
        }
      }
      ++N;
    }

    for (int Part = 0; Part < 2; ++Part) {
      TextTable Table;
      Table.addRow({std::string(TName) + (Part == 0 ? " - Cache Miss Ratio"
                                                    : " - Fetch Cost"),
                    "1Kb LOOPS", "1Kb JUMPS", "2Kb LOOPS", "2Kb JUMPS",
                    "4Kb LOOPS", "4Kb JUMPS", "8Kb LOOPS", "8Kb JUMPS"});
      Table.addSeparator();
      for (bool Ctx : {true, false}) {
        std::vector<std::string> Row = {Ctx ? "context sw. on"
                                            : "context sw. off"};
        for (int Size = 0; Size < 4; ++Size) {
          int C = Size * 2 + (Ctx ? 0 : 1);
          for (int Lvl = 0; Lvl < 2; ++Lvl) {
            double V = (Part == 0 ? MissDelta : CostDelta)[Lvl][C] / N;
            Row.push_back(signedPercent(V));
          }
        }
        Table.addRow(Row);
      }
      std::printf("%s\n", Table.render().c_str());
    }
  }
  return 0;
}
