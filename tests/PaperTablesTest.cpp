//===- PaperTablesTest.cpp - Every table and figure against the golden ----===//
//
// Pins every table and figure EXPERIMENTS.md reports - the Table 1/2 and
// Figure 1/2 listings, Figure 3, Tables 4/5/6, Section 5.2 and both
// ablations - to tests/golden/paper_tables.txt. The golden was produced
// by the per-table and per-figure binaries that bench/paper_tables
// replaced, so the old code checks the new one. A change that moves any
// counted quantity (a replication decision, an executed RTL, a cache
// miss) or a listed RTL fails here and names the first line that moved;
// regenerating the golden is a deliberate act:
//
//   ./build/bench/paper_tables > tests/golden/paper_tables.txt
//
//===----------------------------------------------------------------------===//

#include "PaperTables.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace coderep;

namespace {

std::string readGolden() {
  std::ifstream In(std::string(CODEREP_SOURCE_DIR) +
                   "/tests/golden/paper_tables.txt");
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// "" when equal, else the first differing line of each side.
std::string firstDifference(const std::string &Golden,
                            const std::string &Actual) {
  std::istringstream G(Golden), A(Actual);
  std::string GL, AL;
  for (int Line = 1;; ++Line) {
    const bool HasG = static_cast<bool>(std::getline(G, GL));
    const bool HasA = static_cast<bool>(std::getline(A, AL));
    if (!HasG && !HasA)
      return Golden == Actual ? "" : "the texts differ only in their last "
                                     "line ending";
    if (HasG != HasA || GL != AL)
      return "first difference at line " + std::to_string(Line) +
             "\n  golden: " + (HasG ? GL : "<end of file>") +
             "\n  actual: " + (HasA ? AL : "<end of file>");
  }
}

TEST(PaperTables, MatchGolden) {
  const std::string Golden = readGolden();
  ASSERT_FALSE(Golden.empty()) << "tests/golden/paper_tables.txt is missing";
  const std::string Diff = firstDifference(Golden, bench::paperTables());
  EXPECT_TRUE(Diff.empty()) << Diff;
}

} // namespace
