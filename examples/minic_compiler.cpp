//===- minic_compiler.cpp - A command-line MiniC compiler -------------------------===//
//
// The library as a tool: compiles a MiniC source file and either dumps the
// optimized RTL or executes it with measurements.
//
// Usage:
//   minic_compiler FILE.mc [--target=m68|sparc] [--level=simple|loops|jumps]
//                  [--dump] [--input=FILE] [--cache]
//                  [pipeline, observability and verification flags]
//
// Any malformed flag prints the full usage and exits 2.
//
// Examples:
//   ./build/examples/minic_compiler bench/programs/queens.mc --level=jumps
//   ./build/examples/minic_compiler bench/programs/wc.mc --input=README.md
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cache/PipelineCli.h"
#include "cfg/FunctionPrinter.h"
#include "obs/ObsCli.h"
#include "support/FlagTable.h"
#include "support/Format.h"
#include "verify/VerifyCli.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace coderep;

static bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

int main(int Argc, char **Argv) {
  std::string Path, InputPath;
  target::TargetKind TK = target::TargetKind::Sparc;
  opt::OptLevel Level = opt::OptLevel::Jumps;
  bool Dump = false, Cache = false;
  cache::PipelineCli Pipe;
  obs::ObsCli Obs("minic_compiler");
  verify::VerifyCli Verify;

  support::FlagTable Flags("minic_compiler");
  Flags.positional(Path, "FILE.mc", "MiniC source", /*Required=*/true);
  Flags.choice("target", TK, target::TargetNames, "machine (default sparc)");
  Flags.choice("level", Level, opt::OptLevelNames,
               "optimization level (default jumps)");
  Flags.flag("dump", Dump, "print the optimized RTL instead of running it");
  Flags.text("input", InputPath, "FILE", "bytes the program reads");
  Flags.flag("cache", Cache, "simulate the paper's instruction caches");
  Pipe.addFlags(Flags);
  Obs.addFlags(Flags);
  Verify.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  // False when verification failed or an output could not be written.
  auto finish = [&] {
    bool VerifyOk = Verify.finish(Obs.sink());
    return Obs.finish() && VerifyOk;
  };

  std::string Source;
  if (!readFile(Path, Source)) {
    std::fprintf(stderr, "cannot read %s\n", Path.c_str());
    return 1;
  }
  std::string Input;
  if (!InputPath.empty() && !readFile(InputPath, Input)) {
    std::fprintf(stderr, "cannot read %s\n", InputPath.c_str());
    return 1;
  }

  opt::PipelineOptions Opts;
  Opts.Trace = Obs.config();
  Pipe.apply(Opts);
  Verify.apply(Opts);
  driver::Compilation C = driver::compile(Source, TK, Level, &Opts);
  if (!C.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), C.Error.c_str());
    return 1;
  }
  if (Dump) {
    std::printf("%s", cfg::toString(*C.Prog).c_str());
    return finish() ? 0 : 1;
  }

  std::vector<cache::CacheConfig> Configs;
  if (Cache)
    for (uint32_t Size : bench::paperCacheSizes()) {
      cache::CacheConfig CC;
      CC.SizeBytes = Size;
      CC.ContextSwitches = true;
      Configs.push_back(CC);
    }

  ease::RunOptions RO;
  RO.Input = Input;
  cache::CacheBank Bank(Configs);
  if (!Configs.empty())
    RO.Sink = &Bank;
  ease::RunResult R = ease::run(*C.Prog, RO);

  std::printf("%s", R.Output.c_str());
  std::fprintf(stderr,
               "--- %s, %s ---\n"
               "exit code %d%s%s\n"
               "static RTLs %d (%d jumps, %d cond branches, %d nops)\n"
               "executed %llu RTLs (%llu jumps, %llu cond branches, %llu "
               "nops, %.2f insns between branches)\n",
               TK == target::TargetKind::M68 ? "Motorola 68020" : "Sun SPARC",
               opt::optLevelName(Level), R.ExitCode,
               R.ok() ? "" : ", TRAP: ", R.ok() ? "" : R.TrapMessage.c_str(),
               C.Static.Instructions, C.Static.UncondJumps,
               C.Static.CondBranches, C.Static.Nops,
               static_cast<unsigned long long>(R.Stats.Executed),
               static_cast<unsigned long long>(R.Stats.UncondJumps),
               static_cast<unsigned long long>(R.Stats.CondBranches),
               static_cast<unsigned long long>(R.Stats.Nops),
               R.Stats.insnsBetweenBranches());
  for (size_t I = 0; I < Configs.size(); ++I)
    std::fprintf(stderr, "%uKb cache: miss ratio %.3f%%, fetch cost %llu\n",
                 Configs[I].SizeBytes / 1024,
                 100.0 * Bank.caches()[I].stats().missRatio(),
                 static_cast<unsigned long long>(
                     Bank.caches()[I].stats().FetchCost));
  if (!finish())
    return 1;
  return R.ok() ? 0 : 1;
}
