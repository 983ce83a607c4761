//===- FlagTableTest.cpp - The one command-line parser --------------------===//
//
// Covers support::FlagTable and the rows the shared packs declare into it:
// each row kind accepts exactly its documented spelling, every other
// spelling is a usage error that leaves the destination untouched, the
// usage text comes from the rows, and a name declared twice aborts. The
// *Misparse* cases were silent at one time: each value below used to be
// read as something else and the run went on.
//
//===----------------------------------------------------------------------===//

#include "cache/PipelineCli.h"
#include "obs/ObsCli.h"
#include "server/Protocol.h"
#include "support/FlagTable.h"
#include "verify/VerifyCli.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace coderep;
using support::FlagTable;

namespace {

TEST(FlagTable, ObsRowsRecognizeExactlyTheObsFlags) {
  obs::ObsCli Cli;
  FlagTable Flags("t");
  Cli.addFlags(Flags);
  EXPECT_EQ(Flags.parse({"--trace-out=/tmp/t.json", "--metrics-out=/tmp/m.json",
                         "--profile-out=/tmp/p.json",
                         "--profile-folded=/tmp/p.folded",
                         "--journal-out=/tmp/j.jsonl", "--dot-dir=/tmp/dots"}),
            "");
  EXPECT_NE(Cli.sink(), nullptr);
  EXPECT_NE(Cli.journal(), nullptr);
  EXPECT_NE(Flags.parse({"--level=jumps"}), "");
  EXPECT_NE(Flags.parse({"--trace-out"}), ""); // missing '=VALUE'
  EXPECT_NE(Flags.parse({"trace-out=/tmp/t.json"}), "");
  // An empty path once meant "no trace"; now it is rejected.
  EXPECT_NE(Flags.parse({"--trace-out="}), "");
  EXPECT_NE(Flags.parse({"--journal-out="}), "");
}

TEST(FlagTable, PipelineCacheBareFormSelectsMemory) {
  std::string Dir = "stale";
  bool Given = false;
  FlagTable Flags("t");
  Flags.text("pipeline-cache", Dir, "DIR", "h", &Given);
  EXPECT_EQ(Flags.parse({"--pipeline-cache=/tmp/fncache"}), "");
  EXPECT_TRUE(Given);
  EXPECT_EQ(Dir, "/tmp/fncache");
  EXPECT_EQ(Flags.parse({"--pipeline-cache"}), "");
  EXPECT_EQ(Dir, "");
}

TEST(FlagTable, RealRowsHonorTheirBounds) {
  double Rate = -1.0;
  FlagTable Flags("t");
  Flags.real("min-hit-rate", Rate, "X", "h", 0.0, 1.0);
  for (const char *Good : {"0", "0.01", "1", "1.0"})
    EXPECT_EQ(Flags.parse({std::string("--min-hit-rate=") + Good}), "")
        << Good;
  EXPECT_DOUBLE_EQ(Rate, 1.0);
  for (const char *Bad : {"1.5", "-0", "abc", "", ".5", "nan"})
    EXPECT_NE(Flags.parse({std::string("--min-hit-rate=") + Bad}), "")
        << Bad;
  EXPECT_DOUBLE_EQ(Rate, 1.0);
}

TEST(FlagTable, VerifyRowsRejectSilentMisparses) {
  verify::VerifyCli Cli;
  FlagTable Flags("t");
  Cli.addFlags(Flags);
  EXPECT_EQ(Flags.parse({"--verify=pass", "--verify-seed=7",
                         "--verify-inputs=8"}),
            "");
  EXPECT_EQ(Cli.options().Gran, verify::Granularity::Pass);
  EXPECT_EQ(Cli.options().Seed, 7u);
  EXPECT_EQ(Cli.options().Inputs, 8);
  // atoi read "abc" as 0 inputs and the oracle checked nothing; an oracle
  // that runs no inputs verifies nothing, so 0 is out of range too.
  EXPECT_NE(Flags.parse({"--verify-inputs=abc"}), "");
  EXPECT_NE(Flags.parse({"--verify-inputs=0"}), "");
  // strtoull read "12abc" as seed 12.
  EXPECT_NE(Flags.parse({"--verify-seed=12abc"}), "");
  EXPECT_NE(Flags.parse({"--verify=maybe"}), "");
  EXPECT_EQ(Cli.options().Seed, 7u);
  EXPECT_EQ(Cli.options().Inputs, 8);

  EXPECT_FALSE(Cli.mutate());
  EXPECT_EQ(Flags.parse({"--mutate-constant-folding"}), "");
  EXPECT_TRUE(Cli.mutate());
  EXPECT_EQ(Flags.usage().find("mutate"), std::string::npos)
      << "the mutation switch stays out of the usage text";
}

TEST(FlagTable, FuzzRowsRejectSilentMisparses) {
  // The shapes of fuzz_compile's --seeds and --jobs rows. Only ever parse
  // --jobs=-4 here: atoi plus a cast once turned it into 4294967292
  // worker threads.
  uint64_t Lo = 1, Hi = 0;
  int Jobs = 0;
  FlagTable Flags("t");
  Flags.u64Range("seeds", Lo, Hi, "h");
  Flags.count("jobs", Jobs, "h");
  EXPECT_NE(Flags.parse({"--jobs=-4"}), "");
  EXPECT_EQ(Jobs, 0);
  EXPECT_NE(Flags.parse({"--seeds=10x"}), ""); // strtoull read seeds 1..10
  for (const char *Bad : {"--seeds=", "--seeds=5:", "--seeds=:5",
                          "--seeds=1:2:3", "--seeds=-1", "--seeds=a:b"})
    EXPECT_NE(Flags.parse({Bad}), "") << Bad;
  EXPECT_EQ(Hi, 0u);

  EXPECT_EQ(Flags.parse({"--seeds=20:30"}), "");
  EXPECT_EQ(Lo, 20u);
  EXPECT_EQ(Hi, 30u);
  EXPECT_EQ(Flags.parse({"--seeds=500"}), ""); // N means 1..N
  EXPECT_EQ(Lo, 1u);
  EXPECT_EQ(Hi, 500u);
}

TEST(FlagTable, ChoiceRowsReadTheNameTables) {
  target::TargetKind TK = target::TargetKind::Sparc;
  opt::OptLevel Level = opt::OptLevel::Jumps;
  FlagTable Flags("t");
  Flags.choice("target", TK, target::TargetNames, "h");
  Flags.choice("level", Level, opt::OptLevelNames, "h");
  EXPECT_EQ(Flags.parse({"--target=m68", "--level=loops"}), "");
  EXPECT_EQ(TK, target::TargetKind::M68);
  EXPECT_EQ(Level, opt::OptLevel::Loops);
  for (const char *Bad : {"--target=M68", "--target=x86", "--target=",
                          "--level=JUMPS", "--level=all"})
    EXPECT_NE(Flags.parse({Bad}), "") << Bad;
  EXPECT_NE(Flags.usage().find("--target=m68|sparc"), std::string::npos);
  EXPECT_NE(Flags.usage().find("--level=simple|loops|jumps"),
            std::string::npos);

  // The server protocol spells targets and levels from the same tables.
  for (const auto &[Name, Kind] : target::TargetNames) {
    target::TargetKind Back = target::TargetKind::Sparc;
    EXPECT_STREQ(server::targetWireName(Kind), Name);
    EXPECT_TRUE(server::parseTargetWireName(Name, Back));
    EXPECT_EQ(Back, Kind);
  }
  for (const auto &[Name, L] : opt::OptLevelNames) {
    opt::OptLevel Back = opt::OptLevel::Simple;
    EXPECT_STREQ(server::levelWireName(L), Name);
    EXPECT_TRUE(server::parseLevelWireName(Name, Back));
    EXPECT_EQ(Back, L);
  }
}

TEST(FlagTable, OnlyExactSpellingsParse) {
  bool Dump = false;
  int Jobs = 0;
  std::string Path;
  FlagTable Flags("t");
  Flags.positional(Path, "FILE.mc", "h", /*Required=*/true);
  Flags.flag("dump", Dump, "h");
  Flags.count("jobs", Jobs, "h");
  EXPECT_NE(Flags.parse({"a.mc", "--no-such-flag"}), "");
  EXPECT_NE(Flags.parse({"a.mc", "--job=4"}), "");    // no abbreviations
  EXPECT_NE(Flags.parse({"a.mc", "--jobs", "4"}), ""); // no "--flag value"
  EXPECT_NE(Flags.parse({"a.mc", "-j4"}), "");
  EXPECT_NE(Flags.parse({"a.mc", "--dump=1"}), "");
  EXPECT_NE(Flags.parse({"a.mc", "b.mc"}), "");
  EXPECT_NE(Flags.parse({"--dump"}), ""); // the positional is required
  EXPECT_NE(Flags.parse({"a.mc", "--"}), "");
  EXPECT_EQ(Jobs, 0);
  EXPECT_EQ(Flags.parse({"--jobs=2", "a.mc", "--dump", "--jobs=5"}), "");
  EXPECT_EQ(Path, "a.mc");
  EXPECT_TRUE(Dump);
  EXPECT_EQ(Jobs, 5) << "the last value wins";

  // The error names the offending flag.
  EXPECT_NE(Flags.parse({"a.mc", "--jobs=abc"}).find("--jobs=abc"),
            std::string::npos);
  EXPECT_NE(Flags.parse({"a.mc", "--bogus"}).find("--bogus"),
            std::string::npos);

  FlagTable None("t");
  EXPECT_EQ(None.parse({}), "");
  EXPECT_NE(None.parse({"--trace-out=t.json"}), "");
  EXPECT_NE(None.parse({"x"}), "");
}

TEST(FlagTable, UsageIsGeneratedFromTheRows) {
  std::string Path;
  cache::PipelineCli Pipe;
  FlagTable Flags("minic_compiler");
  Flags.positional(Path, "FILE.mc", "MiniC source", /*Required=*/true);
  Pipe.addFlags(Flags);
  const std::string Usage = Flags.usage();
  EXPECT_EQ(Usage.rfind("usage: minic_compiler FILE.mc\n", 0), 0u)
      << Usage;
  for (const char *Spelling :
       {"--jobs=N", "--pipeline-cache[=DIR]", "--cache-budget=BYTES"})
    EXPECT_NE(Usage.find(Spelling), std::string::npos) << Spelling;
  EXPECT_EQ(FlagTable("no_flags").usage(), "usage: no_flags\n");
}

void declareJobsTwice() {
  int Jobs = 0;
  FlagTable Flags("t");
  Flags.count("jobs", Jobs, "h");
  Flags.count("jobs", Jobs, "h");
}

TEST(FlagTableDeathTest, NameDeclaredTwiceAborts) {
  EXPECT_DEATH(declareJobsTwice(), "declared twice");
}

} // namespace
