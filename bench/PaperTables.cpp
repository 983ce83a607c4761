//===- PaperTables.cpp - Every table and figure of the evaluation ---------===//

#include "PaperTables.h"

#include "cfg/CfgAnalysis.h"
#include "cfg/FunctionPrinter.h"
#include "support/Check.h"
#include "support/Format.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

using namespace coderep;
using namespace coderep::bench;
using namespace coderep::rtl;

namespace {

using target::TargetKind;
using opt::OptLevel;

//===----------------------------------------------------------------------===//
// Tables 1-2 and Figures 1-2: the motivating listings
//===----------------------------------------------------------------------===//

/// Table 1's loop, whose exit test sits in the middle: "do { if (i >= n)
/// break; x[i-1] = x[i]; i++; } while(1)" after front-end lowering.
const char *const Table1Source = R"(
    char x[128];
    int n;
    int main() {
      int i;
      n = 100;
      for (i = 0; i < 128; i++)
        x[i] = i;
      i = 1;
      while (1) {
        if (i >= n)
          break;
        x[i - 1] = x[i];
        i++;
      }
      return x[0];
    }
  )";

/// Table 2's if-then-else, whose join is the function return: with
/// replication the jump over the else part becomes a copy of the epilogue.
const char *const Table2Source = R"(
    int i;
    int n;
    int f() {
      if (i > 5)
        i = i / n;
      else
        i = i * n;
      return i;
    }
    int main() {
      int total;
      total = 0;
      for (i = 0; i < 20; i++) {
        n = 3;
        total += f();
      }
      i = 40;
      n = 4;
      return f() + total;
    }
  )";

const char *yesNo(bool B) { return B ? "yes" : "no"; }

/// Compiles \p Src for the 68020-like target without and then with
/// replication, heads each result and hands it to \p Listing.
template <typename ListingFn>
void withoutAndWith(const char *Src, std::string &Out, ListingFn Listing) {
  for (OptLevel Level : {OptLevel::Simple, OptLevel::Jumps}) {
    const driver::Compilation C = driver::compile(Src, TargetKind::M68, Level);
    CODEREP_CHECK(C.ok(), "a paper listing failed to compile");
    Out += format("=== %s replication ===\n",
                  Level == OptLevel::Simple ? "without" : "with");
    Listing(*C.Prog);
  }
}

/// The whole program and what it executed: with JUMPS the per-iteration
/// unconditional jump is gone.
void table1(std::string &Out) {
  Out += "Table 1: Exit Condition in the Middle of a Loop "
         "(RTLs for the 68020-like target)\n\n";
  withoutAndWith(Table1Source, Out, [&Out](const cfg::Program &P) {
    Out += cfg::toString(P);
    const ease::RunResult R = ease::run(P, ease::RunOptions());
    Out += format("executed %llu RTLs, %llu unconditional jumps "
                  "(exit code %d)\n\n",
                  static_cast<unsigned long long>(R.Stats.Executed),
                  static_cast<unsigned long long>(R.Stats.UncondJumps),
                  R.ExitCode);
  });
}

/// Function f and the program's static jump count: the two paths of f
/// return separately.
void table2(std::string &Out) {
  Out += "Table 2: If-Then-Else Statement "
         "(RTLs for the 68020-like target)\n\n";
  withoutAndWith(Table2Source, Out, [&Out](const cfg::Program &P) {
    Out += cfg::toString(*P.Functions[P.findFunction("f")]) + "\n";
    Out += format("static unconditional jumps in program: %d\n\n",
                  driver::staticStats(P).UncondJumps);
  });
}

/// Figure 1's flow graph, an unconditional jump from outside a loop to
/// its header:
///   1 -> 2,3;  2 -> 4 (the unconditional jump);  3 -> 4 (fall)
///   4 -> 5 (loop header, also exits to 7);  5 -> 6;  6 -> 4 (back edge)
///   7: return.
std::unique_ptr<cfg::Function> buildFigure1() {
  auto F = std::make_unique<cfg::Function>("fig1");
  int L[8];
  for (int I = 1; I <= 7; ++I)
    L[I] = F->freshLabel();
  auto add = [&](int Label, std::vector<Insn> Insns) {
    F->appendBlockWithLabel(Label)->Insns = std::move(Insns);
  };
  Operand R0 = Operand::reg(FirstVirtual);
  add(L[1], {Insn::compare(R0, Operand::imm(0)),
             Insn::condJump(CondCode::Ge, L[3])});
  add(L[2], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(1)),
             Insn::jump(L[4])});
  add(L[3], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(2))});
  add(L[4], {Insn::compare(R0, Operand::imm(100)),
             Insn::condJump(CondCode::Ge, L[7])});
  add(L[5], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(3))});
  add(L[6], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(5)),
             Insn::jump(L[4])});
  add(L[7], {Insn::move(Operand::reg(RegRV), R0),
             Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
             Insn::ret()});
  F->verify();
  return F;
}

/// Copying only the header would give the loop two entries, so JUMPS
/// step 3 pulls the whole loop into the copy.
void figure1(std::string &Out) {
  Out += "Figure 1: Interference with Natural Loops\n\n";
  auto F = buildFigure1();
  Out += "=== before replication ===\n" + cfg::toString(*F) + "\n";
  Out += format("natural loops: %zu, reducible: %s\n\n",
                cfg::LoopInfo(*F).loops().size(), yesNo(cfg::isReducible(*F)));

  replicate::ReplicationStats Stats;
  replicate::runJumps(*F, replicate::ReplicationOptions(), &Stats);
  Out += "=== after JUMPS ===\n" + cfg::toString(*F) + "\n";
  int Jumps = 0;
  for (int B = 0; B < F->size(); ++B)
    Jumps += F->block(B)->endsWithJump() ? 1 : 0;
  Out += format("jumps replaced: %d, whole loops pulled into the copy "
                "(step 3): %d\n",
                Stats.JumpsReplaced, Stats.LoopsCompleted);
  Out += format("natural loops: %zu, reducible: %s, remaining jumps: %d\n",
                cfg::LoopInfo(*F).loops().size(), yesNo(cfg::isReducible(*F)),
                Jumps);
}

/// Replicating block 1 naively would leave block 2's branch on the
/// original, making two partially overlapping loops; JUMPS step 5
/// retargets it to the copy, so the loops stay properly nested.
void figure2(std::string &Out) {
  Out += "Figure 2: Partial Overlapping of Natural Loops\n\n";
  auto F = buildFigure2();
  Out += "=== before replication ===\n" + cfg::toString(*F) + "\n";

  replicate::ReplicationStats Stats;
  replicate::runJumps(*F, replicate::ReplicationOptions(), &Stats);
  Out += "=== after JUMPS ===\n" + cfg::toString(*F) + "\n";
  const cfg::LoopInfo LI(*F);
  Out += format("jumps replaced: %d, step-5 branch retargets: %d, rolled "
                "back (step 6): %d\n",
                Stats.JumpsReplaced, Stats.Step5Retargets,
                Stats.RolledBackIrreducible);
  Out += format("natural loops: %zu, reducible: %s\n", LI.loops().size(),
                yesNo(cfg::isReducible(*F)));
  // Properly nested: any two loops are disjoint or one holds the other.
  bool Nested = true;
  const auto &Loops = LI.loops();
  for (size_t A = 0; A < Loops.size(); ++A)
    for (size_t B = A + 1; B < Loops.size(); ++B) {
      int Common = 0, OnlyA = 0, OnlyB = 0;
      for (int Blk : Loops[A].Blocks)
        (Loops[B].contains(Blk) ? Common : OnlyA)++;
      for (int Blk : Loops[B].Blocks)
        if (!Loops[A].contains(Blk))
          ++OnlyB;
      if (Common && OnlyA && OnlyB)
        Nested = false;
    }
  Out += format("loops properly nested (no partial overlap): %s\n",
                yesNo(Nested));
}

//===----------------------------------------------------------------------===//
// Figure 3 onward: the suite-wide batch
//===----------------------------------------------------------------------===//

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

std::unique_ptr<cfg::Function> bench::buildFigure2() {
  auto F = std::make_unique<cfg::Function>("fig2");
  int L[5];
  for (int I = 1; I <= 4; ++I)
    L[I] = F->freshLabel();
  auto add = [&](int Label, std::vector<Insn> Insns) {
    F->appendBlockWithLabel(Label)->Insns = std::move(Insns);
  };
  Operand R0 = Operand::reg(FirstVirtual);
  add(L[1], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(1)),
             Insn::compare(R0, Operand::imm(50)),
             Insn::condJump(CondCode::Ge, L[4])});
  add(L[2], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(2)),
             Insn::compare(R0, Operand::imm(10)),
             Insn::condJump(CondCode::Lt, L[1])});
  add(L[3], {Insn::binary(Opcode::Add, R0, R0, Operand::imm(3)),
             Insn::jump(L[1])});
  add(L[4], {Insn::move(Operand::reg(RegRV), R0),
             Insn::move(Operand::reg(RegSP), Operand::reg(RegFP)),
             Insn::ret()});
  F->verify();
  return F;
}

std::string bench::paperTables(unsigned Threads, obs::TraceSink *Trace) {
  std::string Out;
  table1(Out);
  table2(Out);
  figure1(Out);
  figure2(Out);
  const Batch B(measureAll(paperTableRequests(), Threads, Trace));
  figure3(B, Out);
  table4(B, Out);
  table5(B, Out);
  table6(B, Out);
  section52(B, Out);
  ablationHeuristics(B, Out);
  ablationLengthCap(B, Out);
  return Out;
}
