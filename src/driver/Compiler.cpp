//===- Compiler.cpp - End-to-end compilation driver ---------------------------===//

#include "driver/Compiler.h"

#include "frontend/CodeGen.h"
#include "obs/ScopedTimer.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace coderep;
using namespace coderep::cfg;
using namespace coderep::driver;
using namespace coderep::rtl;

StaticStats driver::staticStats(const Program &P) {
  StaticStats S;
  for (const auto &F : P.Functions) {
    S.Blocks += F->size();
    for (int B = 0; B < F->size(); ++B) {
      const BasicBlock *Block = F->block(B);
      S.Instructions += Block->rtlCount();
      // Reads only the opcode, so arena RTLs are counted through their
      // views without materializing an Insn (and its switch table).
      auto count = [&S](Opcode Op) {
        switch (Op) {
        case Opcode::Jump:
          ++S.UncondJumps;
          break;
        case Opcode::SwitchJump:
          ++S.IndirectJumps;
          break;
        case Opcode::CondJump:
          ++S.CondBranches;
          break;
        case Opcode::Nop:
          ++S.Nops;
          break;
        default:
          break;
        }
      };
      for (ConstInsnView I : Block->Insns)
        count(I.Op);
      if (Block->DelaySlot)
        count(Block->DelaySlot->Op);
    }
  }
  return S;
}

Compilation driver::compile(const std::string &Source, target::TargetKind TK,
                            opt::OptLevel Level,
                            const opt::PipelineOptions *Override) {
  Compilation Result;
  Result.Prog = std::make_unique<Program>();
  opt::PipelineOptions Options;
  if (Override)
    Options = *Override;
  Options.Level = Level;
  obs::TraceSink *Sink = Options.Trace.Sink;

  {
    obs::ScopedTimer Span(Sink, "frontend");
    if (!frontend::compileToRtl(Source, *Result.Prog, Result.Error))
      return Result;
  }

  std::unique_ptr<target::Target> T = target::createTarget(TK);
  {
    obs::ScopedTimer Span(Sink, "legalize");
    auto &Fns = Result.Prog->Functions;
    auto legalizeOne = [&](size_t I) {
      T->legalizeFunction(*Fns[I]);
      Fns[I]->verify();
    };
    // Legalization is per-function and the target description is
    // stateless, so it rides the same Jobs knob as the optimizer.
    size_t Jobs = Options.Jobs == 0
                      ? std::thread::hardware_concurrency()
                      : static_cast<size_t>(Options.Jobs);
    Jobs = std::max<size_t>(1, std::min(Jobs, Fns.size()));
    if (Jobs <= 1) {
      for (size_t I = 0; I < Fns.size(); ++I)
        legalizeOne(I);
    } else {
      ThreadPool Pool(static_cast<unsigned>(Jobs));
      Pool.parallelFor(Fns.size(), legalizeOne);
    }
  }

  {
    obs::ScopedTimer Span(Sink, "optimize");
    opt::optimizeProgram(*Result.Prog, *T, Options, &Result.Pipeline);
  }
  if (Sink) {
    // Rollup of the per-function analysis caches (the per-analysis split
    // lives under the analysis.<name>.* keys). Counters, like that split:
    // a sink that spans several compiles totals them all.
    const AnalysisCounters &A = Result.Pipeline.Analysis;
    Sink->metrics().add("driver.analysis_hits", A.totalHits());
    Sink->metrics().add("driver.analysis_recomputes", A.totalRecomputes());
    Sink->metrics().add("driver.analysis_invalidations",
                        A.totalInvalidations());
    if (Options.Verifier)
      Options.Verifier->publishMetrics(Sink->metrics());
  }
  Result.Static = staticStats(*Result.Prog);
  return Result;
}

ease::RunResult driver::compileAndRun(const std::string &Source,
                                      target::TargetKind TK,
                                      opt::OptLevel Level,
                                      const std::string &Input) {
  Compilation C = compile(Source, TK, Level);
  if (!C.ok()) {
    ease::RunResult R;
    R.TrapKind = ease::Trap::BadProgram;
    R.TrapMessage = C.Error;
    return R;
  }
  ease::RunOptions Options;
  Options.Input = Input;
  return ease::run(*C.Prog, Options);
}
