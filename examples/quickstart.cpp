//===- quickstart.cpp - Five-minute tour of the library -------------------------===//
//
// Compiles a small C program at SIMPLE and JUMPS, shows the RTL listings,
// and runs both under the EASE-style interpreter to demonstrate the
// headline effect: unconditional jumps disappear and fewer instructions
// execute, at some cost in code size.
//
// Build and run:  ./build/examples/quickstart
//
// Takes the shared observability flags, so the five-minute tour is also
// the five-minute tour of the telemetry:
//   ./build/examples/quickstart --trace-out=/tmp/q.json
//       --profile-out=/tmp/q.speedscope.json --journal-out=/tmp/q.jsonl
//
//===----------------------------------------------------------------------===//

#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "obs/ObsCli.h"
#include "support/FlagTable.h"

#include <cstdio>

using namespace coderep;

int main(int Argc, char **Argv) {
  obs::ObsCli Obs("quickstart");
  support::FlagTable Flags("quickstart");
  Obs.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  // A while loop (unconditional jump at the bottom) plus an if-then-else
  // (unconditional jump over the else part): the two shapes of Section 3.
  const char *Source = R"(
    int data[64];
    int main() {
      int i, sum;
      sum = 0;
      i = 0;
      while (i < 64) {
        if (i & 1)
          sum += i;
        else
          sum -= i;
        data[i] = sum;
        i++;
      }
      return sum & 255;
    }
  )";

  opt::PipelineOptions Opts;
  Opts.Trace = Obs.config();
  for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Jumps}) {
    // Compile for the 68020-like CISC target.
    driver::Compilation C =
        driver::compile(Source, target::TargetKind::M68, Level, &Opts);
    if (!C.ok()) {
      std::fprintf(stderr, "compile error: %s\n", C.Error.c_str());
      return 1;
    }

    // Execute and measure.
    ease::RunOptions Options;
    ease::RunResult R = ease::run(*C.Prog, Options);
    if (!R.ok()) {
      std::fprintf(stderr, "runtime trap: %s\n", R.TrapMessage.c_str());
      return 1;
    }

    std::printf("=========== %s ===========\n", opt::optLevelName(Level));
    std::printf("%s", cfg::toString(*C.Prog->Functions[0]).c_str());
    std::printf("\nstatic RTLs: %d   static unconditional jumps: %d\n",
                C.Static.Instructions, C.Static.UncondJumps);
    std::printf("executed RTLs: %llu   executed unconditional jumps: %llu\n",
                static_cast<unsigned long long>(R.Stats.Executed),
                static_cast<unsigned long long>(R.Stats.UncondJumps));
    std::printf("exit code: %d\n\n", R.ExitCode);
  }
  return Obs.finish() ? 0 : 1;
}
