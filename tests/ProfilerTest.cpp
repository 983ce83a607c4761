//===- ProfilerTest.cpp - Self-profiler export tests ----------------------===//
//
// Covers obs::Profiler: the speedscope JSON export is structurally valid
// (schema URL, deduplicated frame table, evented profiles with balanced
// open/close events), the collapsed-stack export nests paths correctly,
// and both stay well-formed when the event stream is truncated the way a
// crash-flushed trace is (dangling opens, stray ends).
//
//===----------------------------------------------------------------------===//

#include "obs/Profiler.h"

#include "obs/ScopedTimer.h"
#include "obs/Trace.h"
#include "support/ThreadPool.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::obs;
using coderep::tests::JsonValidator;

namespace {

/// Splits the folded export into its "path<space>micros" lines.
std::vector<std::string> foldedPaths(const std::string &Folded) {
  std::vector<std::string> Paths;
  std::istringstream In(Folded);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Space = Line.rfind(' ');
    EXPECT_NE(Space, std::string::npos) << Line;
    Paths.push_back(Line.substr(0, Space));
    // The sample count after the space must be a non-negative integer.
    for (size_t I = Space + 1; I < Line.size(); ++I)
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(Line[I]))) << Line;
  }
  return Paths;
}

TEST(ProfilerTest, SpeedscopeExportIsStructurallyValid) {
  TraceSink Sink;
  {
    ScopedTimer Compile(&Sink, "compile");
    {
      ScopedTimer Parse(&Sink, "parse");
    }
    {
      ScopedTimer Opt(&Sink, "optimize");
      ScopedTimer Inner(&Sink, "replicate");
    }
  }

  Profiler P(Sink);
  std::string Json = P.speedscopeJson();
  EXPECT_TRUE(JsonValidator(Json).validate()) << Json;
  // The fields a speedscope loader dereferences.
  EXPECT_NE(Json.find("\"$schema\": "
                      "\"https://www.speedscope.app/file-format-schema.json\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"shared\": {\"frames\": ["), std::string::npos);
  EXPECT_NE(Json.find("\"type\": \"evented\""), std::string::npos);
  EXPECT_NE(Json.find("\"activeProfileIndex\": 0"), std::string::npos);
  for (const char *Frame : {"compile", "parse", "optimize", "replicate"})
    EXPECT_NE(Json.find("\"name\": \"" + std::string(Frame) + "\""),
              std::string::npos)
        << Frame;
  // Balanced events: every O needs its C.
  size_t Opens = 0, Closes = 0, Pos = 0;
  while ((Pos = Json.find("\"type\": \"O\"", Pos)) != std::string::npos)
    ++Opens, ++Pos;
  Pos = 0;
  while ((Pos = Json.find("\"type\": \"C\"", Pos)) != std::string::npos)
    ++Closes, ++Pos;
  EXPECT_EQ(Opens, 4u);
  EXPECT_EQ(Opens, Closes);
}

TEST(ProfilerTest, CollapsedStacksNestPaths) {
  TraceSink Sink;
  {
    ScopedTimer Compile(&Sink, "compile");
    {
      ScopedTimer Opt(&Sink, "optimize");
      ScopedTimer Inner(&Sink, "replicate");
      // Collapsed stacks leave out paths with no self time, and the sink
      // stamps events in whole microseconds: keep the innermost span open
      // long enough to own some.
      const auto Start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() - Start <
             std::chrono::microseconds(3))
        ;
    }
  }

  Profiler P(Sink);
  std::vector<std::string> Paths = foldedPaths(P.collapsedStacks());
  // Each path is rooted at the track name ("thread 0" here) and the
  // deepest one must appear fully nested; FlameGraph separator is ';'.
  bool SawDeep = false;
  for (const std::string &Path : Paths) {
    if (Path == "thread 0;compile;optimize;replicate")
      SawDeep = true;
    EXPECT_EQ(Path.rfind("thread 0;compile", 0), 0u) << Path;
  }
  EXPECT_TRUE(SawDeep);
}

TEST(ProfilerTest, TruncatedStreamStillExports) {
  // A crash-flushed trace ends mid-span: opens without closes, and (after
  // a dropped buffer) possibly an end with no matching begin. The profiler
  // must still produce loadable output.
  TraceSink Sink;
  Sink.end("stray"); // no matching begin: dropped
  Sink.begin("compile");
  Sink.begin("optimize");
  // no ends: crash happened here

  Profiler P(Sink);
  std::string Json = P.speedscopeJson();
  EXPECT_TRUE(JsonValidator(Json).validate()) << Json;
  EXPECT_EQ(Json.find("\"name\": \"stray\""), std::string::npos);
  std::vector<std::string> Paths = foldedPaths(P.collapsedStacks());
  for (const std::string &Path : Paths)
    EXPECT_EQ(Path.rfind("thread 0;compile", 0), 0u) << Path;
}

TEST(ProfilerTest, MultiThreadTracksAreSeparated) {
  TraceSink Sink;
  ThreadPool Pool(4);
  Pool.parallelFor(8, [&](size_t I) {
    ScopedTimer T(&Sink, "task");
    (void)I;
  });

  Profiler P(Sink);
  std::string Json = P.speedscopeJson();
  EXPECT_TRUE(JsonValidator(Json).validate()) << Json;
  // One evented profile per participating thread, each named.
  size_t Profiles = 0, Pos = 0;
  while ((Pos = Json.find("\"type\": \"evented\"", Pos)) != std::string::npos)
    ++Profiles, ++Pos;
  EXPECT_GE(Profiles, 1u);
  EXPECT_NE(Json.find("\"unit\": \"microseconds\""), std::string::npos);
}

} // namespace
