//===- paper_tables.cpp - Prints every suite-wide number of the evaluation ===//
//
// Figure 3's pipeline activity, Tables 4, 5 and 6, the Section 5.2 SPARC
// statistics and the two ablations (step-2 heuristic, Section 6 sequence
// cap), all from one batch of 196 compile+runs spread over every core
// (see PaperTables.h). tests/golden/paper_tables.txt holds the expected
// output; PaperTablesTest diffs against it.
//
//===----------------------------------------------------------------------===//

#include "PaperTables.h"

#include "obs/ObsCli.h"
#include "support/FlagTable.h"

#include <cstdio>

using namespace coderep;

int main(int Argc, char **Argv) {
  obs::ObsCli Obs("paper_tables");
  support::FlagTable Flags("paper_tables");
  Obs.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  std::fputs(bench::paperTables(0, Obs.sink()).c_str(), stdout);
  return Obs.finish() ? 0 : 1;
}
