//===- PaperTables.cpp - Every suite-wide number of the evaluation --------===//

#include "PaperTables.h"

#include "support/Check.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

using namespace coderep;
using namespace coderep::bench;

namespace {

using target::TargetKind;
using opt::OptLevel;

const TargetKind Targets[] = {TargetKind::Sparc, TargetKind::M68};
const OptLevel Levels[] = {OptLevel::Simple, OptLevel::Loops, OptLevel::Jumps};
constexpr size_t NumTargets = 2, NumLevels = 3;

/// Section 6's sequence-length caps, in RTLs.
constexpr int64_t Caps[] = {4, 8, 16, 32, 64};

/// The SPARC JUMPS runs beyond the default options, in batch order.
enum Variant {
  FavorReturns,
  FavorLoops,
  IndirectEndings,
  Cap4, // one variant per element of Caps
  NumVariants = Cap4 + static_cast<int>(std::size(Caps)),
};

const std::vector<opt::PipelineOptions> &variantOptions() {
  static const std::vector<opt::PipelineOptions> Out = [] {
    std::vector<opt::PipelineOptions> V(NumVariants);
    V[FavorReturns].Replication.Heuristic =
        replicate::PathChoice::FavorReturns;
    V[FavorLoops].Replication.Heuristic = replicate::PathChoice::FavorLoops;
    V[IndirectEndings].Replication.AllowIndirectEndings = true;
    for (size_t I = 0; I < std::size(Caps); ++I)
      V[Cap4 + I].Replication.MaxSequenceRtls = Caps[I];
    return V;
  }();
  return Out;
}

/// The paper's cache configurations: 1/2/4/8 Kb x context switches on/off,
/// at index size*2 + (on ? 0 : 1), so index 0 is 1 Kb with switches on.
std::vector<cache::CacheConfig> paperCacheConfigs() {
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

const char *targetTitle(TargetKind TK) {
  return TK == TargetKind::Sparc ? "Sun SPARC" : "Motorola 68020";
}

/// Percent change from \p Old to \p New.
double pct(double New, double Old) { return 100.0 * (New - Old) / Old; }

/// The batch's results, addressed the way paperTableRequests() laid them
/// out: program indices follow suite().
class Batch {
public:
  explicit Batch(std::vector<MeasuredRun> Results) : Runs(std::move(Results)) {
    CODEREP_CHECK(Runs.size() == (NumTargets * NumLevels + NumVariants) * NP,
                  "paper-table results do not match the request list");
  }

  const MeasuredRun &grid(size_t T, size_t P, size_t L) const {
    return Runs[(T * NP + P) * NumLevels + L];
  }
  const MeasuredRun &sparc(size_t P, size_t L) const { return grid(0, P, L); }
  /// The SPARC JUMPS run of program \p P under variant \p V, or under the
  /// default options when \p V is negative.
  const MeasuredRun &jumps(int V, size_t P) const {
    if (V < 0)
      return sparc(P, 2);
    return Runs[NumTargets * NumLevels * NP + static_cast<size_t>(V) * NP + P];
  }

  const size_t NP = suite().size();

private:
  std::vector<MeasuredRun> Runs;
};

void figure3(const Batch &B, std::string &Out) {
  Out += "Figure 3: Order of Optimizations - pipeline activity\n\n";
  TextTable Table;
  Table.addRow({"program", "level", "fixpoint iters", "jumps replaced",
                "loops completed", "step5 retargets", "step6 rollbacks",
                "skipped", "stub jumps"});
  Table.addSeparator();
  for (size_t P = 0; P < B.NP; ++P)
    for (size_t L = 1; L < NumLevels; ++L) { // LOOPS, JUMPS
      const opt::PipelineStats &PS = B.sparc(P, L).Pipeline;
      const replicate::ReplicationStats &R = PS.Replication;
      Table.addRow({suite()[P].Name, opt::optLevelName(Levels[L]),
                    format("%d", PS.FixpointIterations),
                    format("%d", R.JumpsReplaced),
                    format("%d", R.LoopsCompleted),
                    format("%d", R.Step5Retargets),
                    format("%d", R.RolledBackIrreducible),
                    format("%d", R.SkippedNoCandidate),
                    format("%d", R.StubJumpsAdded)});
    }
  Out += Table.render();
}

struct MeanStd {
  double Mean = 0;
  double StdDev = 0;
};

MeanStd meanStd(const std::vector<double> &Values) {
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

void table4(const Batch &B, std::string &Out) {
  Out += "Table 4: Percent of Instructions that are Unconditional Jumps\n"
         "(paper, SPARC dynamic: SIMPLE 3.28%, LOOPS 1.89%, JUMPS 0.10%;\n"
         " 68020 dynamic: SIMPLE 4.14%, LOOPS 2.47%, JUMPS 0.13%)\n\n";
  for (size_t T = 0; T < NumTargets; ++T) {
    TextTable Table;
    Table.addRow({targetTitle(Targets[T]), "SIMPLE", "LOOPS", "JUMPS"});
    Table.addSeparator();
    std::vector<double> StaticPct[NumLevels], DynPct[NumLevels];
    for (size_t P = 0; P < B.NP; ++P)
      for (size_t L = 0; L < NumLevels; ++L) {
        const MeasuredRun &R = B.grid(T, P, L);
        StaticPct[L].push_back(100.0 * R.Static.UncondJumps /
                               std::max(1, R.Static.Instructions));
        DynPct[L].push_back(100.0 * static_cast<double>(R.Dyn.UncondJumps) /
                            std::max<uint64_t>(1, R.Dyn.Executed));
      }
    for (int Kind = 0; Kind < 2; ++Kind) {
      MeanStd Rows[NumLevels];
      for (size_t L = 0; L < NumLevels; ++L)
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
    Out += Table.render() + "\n";
  }
}

void table5(const Batch &B, std::string &Out) {
  Out += "Table 5: Number of Static and Dynamic Instructions\n"
         "(paper averages: static +3.97%/+56.53% (SPARC), +2.55%/+49.37% "
         "(68020);\n dynamic -2.39%/-5.71% (SPARC), -3.30%/-6.94% (68020) "
         "for LOOPS/JUMPS)\n\n";
  for (size_t T = 0; T < NumTargets; ++T) {
    Out += std::string(targetTitle(Targets[T])) + "\n";
    TextTable Table;
    Table.addRow({"program", "static SIMPLE", "LOOPS", "JUMPS",
                  "dynamic SIMPLE", "LOOPS", "JUMPS"});
    Table.addSeparator();
    double StatL = 0, StatJ = 0, DynL = 0, DynJ = 0;
    long long StatSimpleSum = 0;
    unsigned long long DynSimpleSum = 0;
    const int N = static_cast<int>(B.NP);
    for (size_t P = 0; P < B.NP; ++P) {
      const MeasuredRun &S = B.grid(T, P, 0), &L = B.grid(T, P, 1),
                        &J = B.grid(T, P, 2);
      double SL = pct(L.Static.Instructions, S.Static.Instructions);
      double SJ = pct(J.Static.Instructions, S.Static.Instructions);
      double DL = pct(L.Dyn.Executed, S.Dyn.Executed);
      double DJ = pct(J.Dyn.Executed, S.Dyn.Executed);
      Table.addRow({suite()[P].Name, format("%d", S.Static.Instructions),
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
    }
    Table.addSeparator();
    Table.addRow({"average", format("%lld", StatSimpleSum / N),
                  signedPercent(StatL / N), signedPercent(StatJ / N),
                  format("%llu", DynSimpleSum / N), signedPercent(DynL / N),
                  signedPercent(DynJ / N)});
    Out += Table.render() + "\n";
  }
}

void table6(const Batch &B, std::string &Out) {
  Out += "Table 6: Percent Change in Miss Ratio and Instruction Fetch Cost "
         "for Direct-Mapped Caches\n"
         "(paper, SPARC ctx-on fetch cost: LOOPS -2.73/-3.80/-2.26/-2.40%, "
         "JUMPS +3.44/-5.24/-2.94/-3.98% for 1/2/4/8Kb)\n\n";
  const size_t NC = paperCacheConfigs().size();
  for (size_t T = 0; T < NumTargets; ++T) {
    // Per-program deltas of [0 = LOOPS, 1 = JUMPS][config] against SIMPLE.
    std::vector<double> MissDelta[2], CostDelta[2];
    for (int L = 0; L < 2; ++L) {
      MissDelta[L].assign(NC, 0.0);
      CostDelta[L].assign(NC, 0.0);
    }
    for (size_t P = 0; P < B.NP; ++P) {
      const MeasuredRun &S = B.grid(T, P, 0);
      for (size_t C = 0; C < NC; ++C)
        for (int Lvl = 0; Lvl < 2; ++Lvl) {
          const cache::CacheStats &R = B.grid(T, P, Lvl + 1).Caches[C];
          // Miss ratio difference in percentage points (as in the paper).
          MissDelta[Lvl][C] +=
              100.0 * (R.missRatio() - S.Caches[C].missRatio());
          CostDelta[Lvl][C] += pct(R.FetchCost, S.Caches[C].FetchCost);
        }
    }
    const int N = static_cast<int>(B.NP);
    for (int Part = 0; Part < 2; ++Part) {
      TextTable Table;
      Table.addRow({std::string(targetTitle(Targets[T])) +
                        (Part == 0 ? " - Cache Miss Ratio" : " - Fetch Cost"),
                    "1Kb LOOPS", "1Kb JUMPS", "2Kb LOOPS", "2Kb JUMPS",
                    "4Kb LOOPS", "4Kb JUMPS", "8Kb LOOPS", "8Kb JUMPS"});
      Table.addSeparator();
      for (bool Ctx : {true, false}) {
        std::vector<std::string> Row = {Ctx ? "context sw. on"
                                            : "context sw. off"};
        for (int Size = 0; Size < 4; ++Size) {
          int C = Size * 2 + (Ctx ? 0 : 1);
          for (int Lvl = 0; Lvl < 2; ++Lvl)
            Row.push_back(
                signedPercent((Part == 0 ? MissDelta : CostDelta)[Lvl][C] / N));
        }
        Table.addRow(Row);
      }
      Out += Table.render() + "\n";
    }
  }
}

void section52(const Batch &B, std::string &Out) {
  Out += "Section 5.2 statistics (Sun SPARC)\n"
         "(paper: +1.5 instructions between branches, -50% executed no-ops "
         "under JUMPS)\n\n";
  TextTable Table;
  Table.addRow({"program", "between-branches SIMPLE", "LOOPS", "JUMPS",
                "exec no-ops SIMPLE", "LOOPS", "JUMPS"});
  Table.addSeparator();
  double Dist[NumLevels] = {0, 0, 0};
  unsigned long long Nops[NumLevels] = {0, 0, 0};
  const int N = static_cast<int>(B.NP);
  for (size_t P = 0; P < B.NP; ++P) {
    double D[NumLevels];
    unsigned long long Nop[NumLevels];
    for (size_t L = 0; L < NumLevels; ++L) {
      const ease::DynamicStats &R = B.sparc(P, L).Dyn;
      D[L] = R.insnsBetweenBranches();
      Nop[L] = R.Nops;
      Dist[L] += D[L];
      Nops[L] += Nop[L];
    }
    Table.addRow({suite()[P].Name, format("%.2f", D[0]), format("%.2f", D[1]),
                  format("%.2f", D[2]), format("%llu", Nop[0]),
                  format("%llu", Nop[1]), format("%llu", Nop[2])});
  }
  Table.addSeparator();
  Table.addRow({"average", format("%.2f", Dist[0] / N),
                format("%.2f", Dist[1] / N), format("%.2f", Dist[2] / N),
                format("%llu", Nops[0] / N), format("%llu", Nops[1] / N),
                format("%llu", Nops[2] / N)});
  Out += Table.render() + "\n";
  Out += format("distance change (JUMPS - SIMPLE): %+.2f instructions\n",
                (Dist[2] - Dist[0]) / N);
  if (Nops[0] > 0)
    Out += format("executed no-ops change: %+.1f%%\n",
                  pct(static_cast<double>(Nops[2]),
                      static_cast<double>(Nops[0])));
}

/// Suite averages of one SPARC JUMPS configuration against SPARC SIMPLE.
struct VsSimple {
  double Static = 0, Dynamic = 0, FetchCost1Kb = 0;
  int Replaced = 0, Rollbacks = 0;
};

VsSimple vsSimple(const Batch &B, int V) {
  VsSimple Sum;
  for (size_t P = 0; P < B.NP; ++P) {
    const MeasuredRun &S = B.sparc(P, 0), &J = B.jumps(V, P);
    Sum.Static += pct(J.Static.Instructions, S.Static.Instructions);
    Sum.Dynamic += pct(J.Dyn.Executed, S.Dyn.Executed);
    Sum.FetchCost1Kb += pct(J.Caches[0].FetchCost, S.Caches[0].FetchCost);
    Sum.Replaced += J.Pipeline.Replication.JumpsReplaced;
    Sum.Rollbacks += J.Pipeline.Replication.RolledBackIrreducible;
  }
  const int N = static_cast<int>(B.NP);
  Sum.Static /= N;
  Sum.Dynamic /= N;
  Sum.FetchCost1Kb /= N;
  return Sum;
}

void ablationHeuristics(const Batch &B, std::string &Out) {
  Out += "Ablation: JUMPS step-2 sequence choice heuristic (Sun SPARC)\n\n";
  TextTable Table;
  Table.addRow({"policy", "static change", "dynamic change",
                "jumps replaced", "rollbacks"});
  Table.addSeparator();
  const std::pair<const char *, int> Rows[] = {
      {"shortest", -1},
      {"favor-returns", FavorReturns},
      {"favor-loops", FavorLoops},
      {"shortest+indirect(S6)", IndirectEndings}};
  for (const auto &[Name, V] : Rows) {
    const VsSimple R = vsSimple(B, V);
    Table.addRow({Name, signedPercent(R.Static), signedPercent(R.Dynamic),
                  format("%d", R.Replaced), format("%d", R.Rollbacks)});
  }
  Out += Table.render();
}

void ablationLengthCap(const Batch &B, std::string &Out) {
  Out += "Ablation: cap on RTLs per replication sequence (Section 6 future "
         "work; Sun SPARC)\n\n";
  TextTable Table;
  Table.addRow({"cap (RTLs)", "static change", "dynamic change",
                "1Kb fetch-cost change", "jumps replaced"});
  Table.addSeparator();
  for (size_t I = 0; I <= std::size(Caps); ++I) {
    const bool Unlimited = I == std::size(Caps);
    const VsSimple R = vsSimple(B, Unlimited ? -1 : Cap4 + static_cast<int>(I));
    Table.addRow({Unlimited ? "unlimited"
                            : format("%lld", static_cast<long long>(Caps[I])),
                  signedPercent(R.Static), signedPercent(R.Dynamic),
                  signedPercent(R.FetchCost1Kb), format("%d", R.Replaced)});
  }
  Out += Table.render();
}

/// The grid of both targets x 14 programs x 3 levels, then the SPARC JUMPS
/// variants x 14 programs; Batch reads the results in this layout.
std::vector<MeasureRequest> paperTableRequests() {
  const std::vector<cache::CacheConfig> Configs = paperCacheConfigs();
  std::vector<MeasureRequest> Out;
  for (TargetKind TK : Targets)
    for (const BenchProgram &BP : suite())
      for (OptLevel Level : Levels)
        Out.push_back({&BP, TK, Level, Configs, nullptr});
  for (const opt::PipelineOptions &Options : variantOptions())
    for (const BenchProgram &BP : suite())
      Out.push_back({&BP, TargetKind::Sparc, OptLevel::Jumps, Configs,
                     &Options});
  return Out;
}

} // namespace

std::string bench::paperTables(unsigned Threads, obs::TraceSink *Trace) {
  const Batch B(measureAll(paperTableRequests(), Threads, Trace));
  std::string Out;
  figure3(B, Out);
  table4(B, Out);
  table5(B, Out);
  table6(B, Out);
  section52(B, Out);
  ablationHeuristics(B, Out);
  ablationLengthCap(B, Out);
  return Out;
}
