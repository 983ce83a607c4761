//===- ObsCliTest.cpp - Shared observability flag handling tests ----------===//
//
// Covers obs::ObsCli, the observability outputs the compiling binaries
// share: the null-sink fast path when no flag is given, config() wiring
// for sink and journal, and finish() writing each requested artifact as
// valid JSON. FlagTableTest covers how its rows parse.
//
//===----------------------------------------------------------------------===//

#include "obs/ObsCli.h"

#include "obs/ScopedTimer.h"
#include "support/FlagTable.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace coderep;
using namespace coderep::obs;
using coderep::tests::JsonValidator;

namespace {

std::string tempPath(const char *Tag) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "/tmp/coderep_obscli_%ld_%s",
                static_cast<long>(getpid()), Tag);
  return Buf;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Parses \p Args through a table holding only \p Cli's rows.
void parse(ObsCli &Cli, const std::vector<std::string> &Args) {
  support::FlagTable Flags("obscli_test");
  Cli.addFlags(Flags);
  ASSERT_EQ(Flags.parse(Args), "");
}

TEST(ObsCliTest, InactiveWithoutFlagsKeepsNullSink) {
  ObsCli Cli;
  TraceConfig C = Cli.config();
  EXPECT_EQ(C.Sink, nullptr);
  EXPECT_EQ(C.SessionJournal, nullptr);
  EXPECT_EQ(Cli.sink(), nullptr);
  EXPECT_EQ(Cli.journal(), nullptr);
  EXPECT_TRUE(Cli.finish()); // nothing requested: trivially succeeds
}

TEST(ObsCliTest, JournalOnlyRunSkipsTheSink) {
  // --journal-out alone must not pay for event recording: the sink stays
  // null while the journal is wired.
  ObsCli Cli("journal_only");
  parse(Cli, {"--journal-out=" + tempPath("j.jsonl")});
  TraceConfig C = Cli.config();
  EXPECT_EQ(C.Sink, nullptr);
  ASSERT_NE(C.SessionJournal, nullptr);
  EXPECT_TRUE(Cli.finish());
  std::string Jsonl = slurp(tempPath("j.jsonl"));
  EXPECT_NE(Jsonl.find("\"tool\": \"journal_only\""), std::string::npos);
  std::remove(tempPath("j.jsonl").c_str());
}

TEST(ObsCliTest, FinishWritesEveryRequestedArtifact) {
  std::string Trace = tempPath("t.json"), Metrics = tempPath("m.json"),
              Profile = tempPath("p.json"), Folded = tempPath("p.folded"),
              JournalP = tempPath("j2.jsonl");
  ObsCli Cli("obscli_test");
  parse(Cli, {"--trace-out=" + Trace, "--metrics-out=" + Metrics,
              "--profile-out=" + Profile, "--profile-folded=" + Folded,
              "--journal-out=" + JournalP});

  TraceConfig C = Cli.config();
  ASSERT_NE(C.Sink, nullptr);
  ASSERT_NE(C.SessionJournal, nullptr);
  {
    ScopedTimer T(C.Sink, "span");
    C.Sink->metrics().add("obscli.test_count", 2);
    C.Sink->histograms().record("obscli.test_us", 10);
  }
  JournalRecord R;
  R.Fn = "f";
  R.Cache = "off";
  R.Verify = "off";
  C.SessionJournal->append(R);
  ASSERT_TRUE(Cli.finish());

  for (const std::string &Path : {Trace, Metrics, Profile}) {
    std::string Json = slurp(Path);
    EXPECT_TRUE(JsonValidator(Json).validate()) << Path << "\n" << Json;
  }
  EXPECT_NE(slurp(Trace).find("\"span\""), std::string::npos);
  EXPECT_NE(slurp(Metrics).find("\"obscli.test_us\""), std::string::npos);
  EXPECT_NE(slurp(Profile).find("\"$schema\""), std::string::npos);
  EXPECT_NE(slurp(Folded).find("span"), std::string::npos);
  std::string Jsonl = slurp(JournalP);
  EXPECT_NE(Jsonl.find("\"records\": 1"), std::string::npos);
  EXPECT_NE(Jsonl.find("\"fn\": \"f\""), std::string::npos);
  for (const std::string &Path : {Trace, Metrics, Profile, Folded, JournalP})
    std::remove(Path.c_str());
}

TEST(ObsCliTest, RecordsEventsOnlyForOutputsThatReadThem) {
  // --metrics-out alone keeps metrics and histograms live but records no
  // span events, so a long-lived daemon's sink does not grow per request.
  {
    const std::string Metrics = tempPath("m_only.json");
    ObsCli Cli;
    parse(Cli, {"--metrics-out=" + Metrics});
    TraceConfig C = Cli.config();
    ASSERT_NE(C.Sink, nullptr);
    EXPECT_FALSE(C.Sink->eventsEnabled());
    {
      ScopedTimer T(C.Sink, "span");
      C.Sink->metrics().add("obscli.test_count", 2);
      C.Sink->histograms().record("obscli.test_us", 10);
    }
    EXPECT_TRUE(C.Sink->events().empty());
    ASSERT_TRUE(Cli.finish());
    const std::string Json = slurp(Metrics);
    EXPECT_NE(Json.find("\"obscli.test_count\""), std::string::npos);
    EXPECT_NE(Json.find("\"obscli.test_us\""), std::string::npos);
    std::remove(Metrics.c_str());
  }
  // Each output that reads events turns them on.
  for (const std::string Flag :
       {"--trace-out=", "--profile-out=", "--profile-folded=", "--dot-dir="}) {
    const std::string Path = tempPath("events");
    ObsCli Cli;
    parse(Cli, {Flag + Path, "--metrics-out=" + tempPath("m_events.json")});
    TraceConfig C = Cli.config();
    ASSERT_NE(C.Sink, nullptr);
    EXPECT_TRUE(C.Sink->eventsEnabled()) << Flag;
    { ScopedTimer T(C.Sink, "span"); }
    EXPECT_EQ(C.Sink->events().size(), 2u) << Flag; // begin and end
    EXPECT_TRUE(Cli.finish());
    std::remove(Path.c_str());
    std::remove(tempPath("m_events.json").c_str());
  }
}

TEST(ObsCliTest, FinishFailsOnUnwritablePath) {
  ObsCli Cli;
  parse(Cli, {"--metrics-out=/nonexistent-dir/metrics.json"});
  (void)Cli.config();
  EXPECT_FALSE(Cli.finish());
}

} // namespace
