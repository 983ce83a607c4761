//===- table2_if_then_else.cpp - Reproduces Table 2 ------------------------------===//
//
// The paper's Table 2: an if-then-else whose join is the function return.
// With replication the jump over the else part is replaced by a copy of
// the epilogue, so the two paths return separately.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "cfg/FunctionPrinter.h"
#include "support/FlagTable.h"

#include <cstdio>

using namespace coderep;
using namespace coderep::driver;

int main(int Argc, char **Argv) {
  support::FlagTable("table2_if_then_else").parseOrExit(Argc, Argv);
  const char *Src = R"(
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

  std::printf("Table 2: If-Then-Else Statement "
              "(RTLs for the 68020-like target)\n\n");
  for (opt::OptLevel Level : {opt::OptLevel::Simple, opt::OptLevel::Jumps}) {
    Compilation C = compile(Src, target::TargetKind::M68, Level);
    if (!C.ok()) {
      std::fprintf(stderr, "compile error: %s\n", C.Error.c_str());
      return 1;
    }
    int FIdx = C.Prog->findFunction("f");
    std::printf("=== %s replication ===\n%s\n",
                Level == opt::OptLevel::Simple ? "without" : "with",
                cfg::toString(*C.Prog->Functions[FIdx]).c_str());
    driver::StaticStats SS = staticStats(*C.Prog);
    std::printf("static unconditional jumps in program: %d\n\n",
                SS.UncondJumps);
  }
  return 0;
}
