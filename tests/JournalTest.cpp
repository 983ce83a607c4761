//===- JournalTest.cpp - Session event-journal tests ----------------------===//
//
// Covers obs::Journal: the schema-versioned JSONL export, the pinned
// golden record for a Figure-1 compile (timing values zeroed, everything
// else byte-exact: replication fates, analysis counters, cache and verify
// state), determinism of the journal across jobs counts, and the cache-hit
// record shape.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"

#include "cache/CompileCache.h"
#include "driver/Compiler.h"
#include "obs/Trace.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::obs;
using coderep::tests::JsonValidator;

namespace {

/// The paper's Figure 1 shape in MiniC: a while loop whose bottom jump
/// JUMPS replaces with a replicated loop test.
const char *Figure1Source = R"(
  int main() {
    int i, sum;
    sum = 0;
    i = 0;
    while (i < 10) {
      sum = sum + i;
      i = i + 1;
    }
    return sum;
  }
)";

/// Zeroes every number inside the "phase_us" object of each line: phase
/// timings are the one nondeterministic part of a journal record.
std::string zeroPhaseTimings(const std::string &Jsonl) {
  const std::string Marker = "\"phase_us\": {";
  std::string Out;
  Out.reserve(Jsonl.size());
  bool InPhase = false;
  for (size_t I = 0; I < Jsonl.size();) {
    if (!InPhase && Jsonl.compare(I, Marker.size(), Marker) == 0) {
      InPhase = true;
      Out += Marker;
      I += Marker.size();
      continue;
    }
    char C = Jsonl[I];
    if (InPhase && C == '}')
      InPhase = false;
    if (InPhase && std::isdigit(static_cast<unsigned char>(C))) {
      while (I < Jsonl.size() &&
             std::isdigit(static_cast<unsigned char>(Jsonl[I])))
        ++I;
      Out += '0';
      continue;
    }
    Out += C;
    ++I;
  }
  return Out;
}

std::vector<std::string> lines(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream In(S);
  std::string Line;
  while (std::getline(In, Line))
    Out.push_back(Line);
  return Out;
}

std::string compileWithJournal(unsigned Jobs,
                               opt::FunctionOptimizationCache *FC,
                               const char *Tool = "test") {
  Journal J(Tool);
  opt::PipelineOptions Opts;
  Opts.Trace.SessionJournal = &J;
  Opts.Jobs = Jobs;
  Opts.FunctionCache = FC;
  driver::Compilation C = driver::compile(Figure1Source,
                                          target::TargetKind::Sparc,
                                          opt::OptLevel::Jumps, &Opts);
  EXPECT_TRUE(C.ok()) << C.Error;
  return J.jsonl();
}

TEST(JournalTest, EveryLineIsValidJson) {
  std::string Jsonl = compileWithJournal(1, nullptr);
  std::vector<std::string> Ls = lines(Jsonl);
  ASSERT_GE(Ls.size(), 2u); // session header + >= 1 function record
  for (const std::string &L : Ls)
    EXPECT_TRUE(JsonValidator(L).validate()) << L;
}

TEST(JournalTest, GoldenFigure1Compile) {
  std::string Jsonl;
  { SCOPED_TRACE("compile"); Jsonl = zeroPhaseTimings(
        compileWithJournal(1, nullptr)); }
  // Byte-exact except phase timings (zeroed above): schema version,
  // session header, replication fates, fixpoint and analysis counters.
  // The JUMPS pipeline replaces exactly the one bottom-of-loop jump; all
  // 15 phases are always present so the key set is schema-stable.
  EXPECT_EQ(
      Jsonl,
      "{\"v\": 1, \"event\": \"session\", \"tool\": \"test\", "
      "\"records\": 1}\n"
      "{\"v\": 1, \"event\": \"function\", \"fn\": \"main\", "
      "\"cache\": \"off\", \"verify\": \"off\", \"phase_us\": "
      "{\"total\": 0, \"branch chaining\": 0, "
      "\"unreachable elimination\": 0, \"block reordering\": 0, "
      "\"fall-through merging\": 0, \"code replication\": 0, "
      "\"instruction selection\": 0, \"register assignment\": 0, "
      "\"common subexpression elim\": 0, \"dead variable elimination\": 0, "
      "\"code motion\": 0, \"strength reduction\": 0, "
      "\"constant folding\": 0, \"register allocation\": 0, "
      "\"delay-slot filling\": 0, \"fused local sweep\": 0}, "
      "\"counters\": {\"repl.jumps_replaced\": 1, "
      "\"repl.rolled_back_irreducible\": 0, \"repl.skipped_length_cap\": 0, "
      "\"repl.skipped_growth_budget\": 0, \"repl.skipped_no_candidate\": 0, "
      "\"repl.loops_completed\": 0, \"repl.step5_retargets\": 0, "
      "\"repl.stub_jumps_added\": 0, \"fixpoint.rounds\": 3, "
      "\"fixpoint.passes_run\": 21, \"fixpoint.passes_skipped\": 9, "
      "\"analysis.hits\": 23, \"analysis.recomputes\": 18, "
      "\"analysis.invalidations\": 12, \"rtls_out\": 13}}\n");
}

TEST(JournalTest, DeterministicAcrossJobsCounts) {
  std::string Serial = zeroPhaseTimings(compileWithJournal(1, nullptr));
  std::string Parallel = zeroPhaseTimings(compileWithJournal(4, nullptr));
  EXPECT_EQ(Serial, Parallel);
}

TEST(JournalTest, CacheHitRecordsAsHit) {
  cache::PipelineCache FC;
  std::string Cold = compileWithJournal(1, &FC);
  EXPECT_NE(Cold.find("\"cache\": \"miss\""), std::string::npos) << Cold;
  std::string Warm = compileWithJournal(1, &FC);
  EXPECT_NE(Warm.find("\"cache\": \"hit\""), std::string::npos) << Warm;
  // A hit record still names the function and carries the output size.
  EXPECT_NE(Warm.find("\"fn\": \"main\""), std::string::npos) << Warm;
  EXPECT_NE(Warm.find("\"rtls_out\":"), std::string::npos) << Warm;
}

TEST(JournalTest, SessionHeaderCarriesSchemaAndTool) {
  std::string Jsonl = compileWithJournal(1, nullptr, "journal_test");
  std::vector<std::string> Ls = lines(Jsonl);
  ASSERT_FALSE(Ls.empty());
  EXPECT_EQ(Ls[0].rfind("{\"v\": 1, \"event\": \"session\", "
                        "\"tool\": \"journal_test\", \"records\": ",
                        0),
            0u)
      << Ls[0];
}

} // namespace
