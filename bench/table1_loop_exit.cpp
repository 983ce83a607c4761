//===- table1_loop_exit.cpp - Reproduces Table 1 --------------------------------===//
//
// The paper's motivating Table 1: a loop whose exit condition sits in the
// middle ("do { if (i >= n) break; x[i-1] = x[i]; i++; } while(1)" after
// front-end lowering), compiled for the 68020-like target without and
// with generalized replication. The harness prints both RTL listings and
// the jump counts: with JUMPS the per-iteration unconditional jump is
// gone.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "cfg/FunctionPrinter.h"
#include "support/FlagTable.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::driver;

int main(int Argc, char **Argv) {
  support::FlagTable("table1_loop_exit").parseOrExit(Argc, Argv);
  const char *Src = R"(
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

  std::printf("Table 1: Exit Condition in the Middle of a Loop "
              "(RTLs for the 68020-like target)\n\n");
  for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Jumps}) {
    Compilation C = compile(Src, target::TargetKind::M68, Level);
    if (!C.ok()) {
      std::fprintf(stderr, "compile error: %s\n", C.Error.c_str());
      return 1;
    }
    std::printf("=== %s replication ===\n%s",
                Level == opt::OptLevel::Simple ? "without" : "with",
                cfg::toString(*C.Prog).c_str());
    ease::RunOptions RO;
    ease::RunResult R = ease::run(*C.Prog, RO);
    std::printf("executed %llu RTLs, %llu unconditional jumps "
                "(exit code %d)\n\n",
                static_cast<unsigned long long>(R.Stats.Executed),
                static_cast<unsigned long long>(R.Stats.UncondJumps),
                R.ExitCode);
  }
  return 0;
}
