//===- ablation_length_cap.cpp - §6 replication-length cap ablation ---------------===//
//
// The paper's Future Work proposes limiting the maximum length of a
// replication sequence "to a specified number of RTLs": dynamic savings
// should drop slightly while small caches benefit from less code growth.
// This ablation sweeps the cap and reports static growth, dynamic change
// and 1Kb-cache fetch cost relative to SIMPLE.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "support/FlagTable.h"
#include "support/Format.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::bench;

int main(int Argc, char **Argv) {
  support::FlagTable("ablation_length_cap").parseOrExit(Argc, Argv);
  std::printf("Ablation: cap on RTLs per replication sequence "
              "(Section 6 future work; Sun SPARC)\n\n");

  const int64_t Caps[] = {4, 8, 16, 32, 64, -1};

  std::vector<cache::CacheConfig> Configs;
  cache::CacheConfig CC;
  CC.SizeBytes = 1024;
  CC.ContextSwitches = true;
  Configs.push_back(CC);

  TextTable Table;
  Table.addRow({"cap (RTLs)", "static change", "dynamic change",
                "1Kb fetch-cost change", "jumps replaced"});
  Table.addSeparator();

  for (int64_t Cap : Caps) {
    double StatDelta = 0, DynDelta = 0, CostDelta = 0;
    int Replaced = 0, N = 0;
    for (const BenchProgram &BP : suite()) {
      MeasuredRun S =
          measure(BP, target::TargetKind::Sparc, opt::OptLevel::Simple,
                  Configs);
      opt::PipelineOptions Options;
      Options.Replication.MaxSequenceRtls = Cap;
      MeasuredRun J =
          measure(BP, target::TargetKind::Sparc, opt::OptLevel::Jumps,
                  Configs, &Options);
      StatDelta += 100.0 *
                   (J.Static.Instructions - S.Static.Instructions) /
                   S.Static.Instructions;
      DynDelta += 100.0 *
                  (static_cast<double>(J.Dyn.Executed) -
                   static_cast<double>(S.Dyn.Executed)) /
                  static_cast<double>(S.Dyn.Executed);
      CostDelta += 100.0 *
                   (static_cast<double>(J.Caches[0].FetchCost) -
                    static_cast<double>(S.Caches[0].FetchCost)) /
                   static_cast<double>(S.Caches[0].FetchCost);
      Replaced += J.Pipeline.Replication.JumpsReplaced;
      ++N;
    }
    Table.addRow({Cap < 0 ? "unlimited" : format("%lld",
                                                 static_cast<long long>(Cap)),
                  signedPercent(StatDelta / N), signedPercent(DynDelta / N),
                  signedPercent(CostDelta / N), format("%d", Replaced)});
  }
  std::printf("%s", Table.render().c_str());
  return 0;
}
