//===- BenchReportTest.cpp - Bench-history analyzer tests -----------------===//
//
// Covers bench::BenchReport: the flat-JSONL parser (including nested
// values to skip and malformed input), the median-of-window baseline with
// one value per git SHA, the regression gate on machine-normalized ratio
// metrics (and only those), the strict --threshold=/--window= flags, the
// seeded-synthetic-regression self-check, and the markdown rendering.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "support/FlagTable.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace coderep::bench;

namespace {

/// A healthy history line resembling what bench_compile appends, one
/// commit per record. verify_final_overhead, a ratio older records carry,
/// is not gated: it only informs.
BenchRecord healthyRecord(int I) {
  BenchRecord R;
  R.Strs["date"] = "2026-08-07T00:00:0" + std::to_string(I % 10) + "Z";
  R.Strs["git_sha"] = "abc123" + std::to_string(I);
  R.Nums["reference_speedup"] = 2.60 + 0.02 * (I % 3);
  R.Nums["verify_final_overhead"] = 29.0 + 0.5 * (I % 2);
  R.Nums["obs_overhead"] = 1.010;
  R.Nums["end_to_end_us"] = 900000.0 + 5000.0 * I;
  R.Nums["arena_insns"] = 6668;
  return R;
}

std::vector<BenchRecord> healthyHistory(int N) {
  std::vector<BenchRecord> Records;
  for (int I = 0; I < N; ++I)
    Records.push_back(healthyRecord(I));
  return Records;
}

TEST(BenchReportTest, ParsesHistoryLines) {
  std::string Text =
      "{\"date\": \"2026-08-07T16:22:19Z\", \"git_sha\": \"ab527b8\", "
      "\"jobs\": 1, \"reference_speedup\": 2.600, \"end_to_end_us\": 906878}\n"
      "\n" // blank lines are skipped
      "{\"git_sha\": \"ab527b8\", \"reference_speedup\": 2.561, "
      "\"nested\": {\"skipped\": [1, 2, {\"deep\": true}]}, "
      "\"flag\": true, \"nothing\": null}\n";
  std::vector<BenchRecord> Records;
  std::string Err;
  ASSERT_TRUE(parseBenchHistory(Text, Records, Err)) << Err;
  ASSERT_EQ(Records.size(), 2u);
  EXPECT_EQ(Records[0].Strs.at("git_sha"), "ab527b8");
  EXPECT_DOUBLE_EQ(Records[0].Nums.at("reference_speedup"), 2.600);
  EXPECT_DOUBLE_EQ(Records[0].Nums.at("end_to_end_us"), 906878);
  // Nested values are skipped, not errors; booleans become 0/1; null drops.
  EXPECT_EQ(Records[1].Nums.count("nested"), 0u);
  EXPECT_DOUBLE_EQ(Records[1].Nums.at("flag"), 1.0);
  EXPECT_EQ(Records[1].Nums.count("nothing"), 0u);
}

TEST(BenchReportTest, RejectsMalformedLinesWithLineNumber) {
  std::vector<BenchRecord> Records;
  std::string Err;
  EXPECT_FALSE(parseBenchHistory("{\"ok\": 1}\nnot json\n", Records, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  Records.clear();
  EXPECT_FALSE(parseBenchHistory("{\"unterminated\": \"x\n", Records, Err));
  EXPECT_FALSE(parseBenchHistory("{\"a\": 1} trailing\n", Records, Err));
}

TEST(BenchReportTest, CleanHistoryPasses) {
  BenchReportResult R = analyzeHistory(healthyHistory(6));
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.RecordCount, 6u);
  EXPECT_EQ(R.WindowUsed, 5u);
  EXPECT_EQ(R.LastSha, "abc1235");
  // Gated rows are marked as such; absolute metrics stay informational.
  for (const MetricRow &Row : R.Rows) {
    if (Row.Name == "reference_speedup" || Row.Name == "obs_overhead") {
      EXPECT_TRUE(Row.Gated) << Row.Name;
    } else {
      EXPECT_FALSE(Row.Gated) << Row.Name;
    }
    EXPECT_TRUE(Row.HasBaseline) << Row.Name;
  }
}

TEST(BenchReportTest, SpeedupDropFlagsRegression) {
  std::vector<BenchRecord> Records = healthyHistory(5);
  BenchRecord Bad = healthyRecord(5);
  Bad.Nums["reference_speedup"] = 1.8; // ~31% below the ~2.62 median
  Records.push_back(Bad);
  BenchReportResult R = analyzeHistory(Records);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Flagged.size(), 1u);
  EXPECT_EQ(R.Flagged[0], "reference_speedup");
}

TEST(BenchReportTest, OverheadGrowthFlagsRegression) {
  std::vector<BenchRecord> Records = healthyHistory(5);
  BenchRecord Bad = healthyRecord(5);
  Bad.Nums["obs_overhead"] = 1.2; // lower-is-better, +19%
  Records.push_back(Bad);
  BenchReportResult R = analyzeHistory(Records);
  EXPECT_FALSE(R.ok());
  ASSERT_EQ(R.Flagged.size(), 1u);
  EXPECT_EQ(R.Flagged[0], "obs_overhead");
}

TEST(BenchReportTest, AbsoluteMetricSwingsDoNotGate) {
  // A 3x end-to-end jump (a slower machine) must not fail the gate.
  std::vector<BenchRecord> Records = healthyHistory(5);
  BenchRecord Slow = healthyRecord(5);
  Slow.Nums["end_to_end_us"] = 3000000.0;
  Records.push_back(Slow);
  EXPECT_TRUE(analyzeHistory(Records).ok());
}

TEST(BenchReportTest, ImprovementsDoNotFlag) {
  std::vector<BenchRecord> Records = healthyHistory(5);
  BenchRecord Fast = healthyRecord(5);
  Fast.Nums["reference_speedup"] = 5.0; // higher is better
  Fast.Nums["obs_overhead"] = 1.0;      // lower is better
  Records.push_back(Fast);
  EXPECT_TRUE(analyzeHistory(Records).ok());
}

TEST(BenchReportTest, ThresholdAndWindowAreHonored) {
  std::vector<BenchRecord> Records = healthyHistory(5);
  BenchRecord Bad = healthyRecord(5);
  Bad.Nums["reference_speedup"] = 2.3; // ~12% below the median
  Records.push_back(Bad);
  ReportOptions Tight;
  Tight.ThresholdPct = 5.0;
  EXPECT_FALSE(analyzeHistory(Records, Tight).ok());
  ReportOptions Loose;
  Loose.ThresholdPct = 25.0;
  EXPECT_TRUE(analyzeHistory(Records, Loose).ok());

  ReportOptions OneBack;
  OneBack.Window = 1;
  BenchReportResult R = analyzeHistory(Records, OneBack);
  EXPECT_EQ(R.WindowUsed, 1u);
}

TEST(BenchReportTest, BaselineCountsOneValuePerSha) {
  auto record = [](const std::string &Sha, double Speedup) {
    BenchRecord R;
    R.Strs["git_sha"] = Sha;
    R.Nums["reference_speedup"] = Speedup;
    return R;
  };
  // Four commits at 2.6, then eleven reruns of one commit on a slow day:
  // the reruns weigh as one SHA, so the window still sees 2.6 and the
  // newest record's drop to 2.0 flags.
  std::vector<BenchRecord> Records;
  for (const char *Sha : {"c1", "c2", "c3", "c4"})
    Records.push_back(record(Sha, 2.6));
  for (int I = 0; I < 11; ++I)
    Records.push_back(record("burst", 2.0));
  Records.push_back(record("head", 2.0));
  BenchReportResult R = analyzeHistory(Records);
  EXPECT_EQ(R.WindowUsed, 5u);
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_DOUBLE_EQ(R.Rows[0].Baseline, 2.6);
  EXPECT_FALSE(R.ok());

  // Earlier records at the newest record's own SHA are not its baseline.
  Records = {record("c1", 2.6), record("c2", 2.6), record("head", 2.0),
             record("head", 2.0), record("head", 2.0)};
  R = analyzeHistory(Records);
  EXPECT_EQ(R.WindowUsed, 2u);
  ASSERT_EQ(R.Rows.size(), 1u);
  EXPECT_DOUBLE_EQ(R.Rows[0].Baseline, 2.6);
  EXPECT_FALSE(R.ok());

  // A history at one SHA has no baseline at all.
  R = analyzeHistory({record("head", 2.6), record("head", 1.0)});
  EXPECT_EQ(R.WindowUsed, 0u);
  EXPECT_TRUE(R.ok());
}

TEST(BenchReportTest, ReportFlagsAreStrict) {
  ReportOptions Opts;
  coderep::support::FlagTable Flags("t");
  Opts.addFlags(Flags);
  EXPECT_EQ(Flags.parse({"--threshold=2.5"}), "");
  EXPECT_DOUBLE_EQ(Opts.ThresholdPct, 2.5);
  EXPECT_EQ(Flags.parse({"--window=3"}), "");
  EXPECT_EQ(Opts.Window, 3);
  for (const char *Bad : {"abc", "10x", "-1", "", "0", " 5", "nan"}) {
    EXPECT_NE(Flags.parse({std::string("--threshold=") + Bad}), "") << Bad;
    EXPECT_NE(Flags.parse({std::string("--window=") + Bad}), "") << Bad;
  }
  for (const char *Bad : {"--threshold=inf", "--threshold=1e3",
                          "--threshold=0x10", "--window=2.5",
                          "--markdown-out=x"})
    EXPECT_NE(Flags.parse({Bad}), "") << Bad;
  // Rejected values leave the options as they were.
  EXPECT_DOUBLE_EQ(Opts.ThresholdPct, 2.5);
  EXPECT_EQ(Opts.Window, 3);
}

TEST(BenchReportTest, FewRecordsNeverFlag) {
  EXPECT_TRUE(analyzeHistory({}).ok());
  BenchReportResult One = analyzeHistory(healthyHistory(1));
  EXPECT_TRUE(One.ok());
  for (const MetricRow &Row : One.Rows)
    EXPECT_FALSE(Row.HasBaseline) << Row.Name;
  // A metric new in the last record (no prior window) reports baseline-less
  // rather than flagging.
  std::vector<BenchRecord> Records = healthyHistory(3);
  for (auto &R : Records)
    R.Nums.erase("obs_overhead");
  BenchRecord WithNew = healthyRecord(3);
  Records.push_back(WithNew);
  BenchReportResult R = analyzeHistory(Records);
  EXPECT_TRUE(R.ok());
  for (const MetricRow &Row : R.Rows) {
    if (Row.Name == "obs_overhead") {
      EXPECT_FALSE(Row.HasBaseline);
    }
  }
}

TEST(BenchReportTest, SeededSyntheticRegressionIsDetected) {
  // The contract behind bench_report --self-check and CI's gate self-test.
  std::vector<BenchRecord> Records = healthyHistory(5);
  ASSERT_TRUE(analyzeHistory(Records).ok());
  seedSyntheticRegression(Records);
  BenchReportResult R = analyzeHistory(Records);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.LastSha, "synthetic");
  // Every gated metric present in the history must trip.
  EXPECT_EQ(R.Flagged,
            (std::vector<std::string>{"obs_overhead", "reference_speedup"}));
}

TEST(BenchReportTest, MarkdownCarriesVerdictAndRows) {
  std::vector<BenchRecord> Records = healthyHistory(5);
  std::string Ok = renderMarkdown(analyzeHistory(Records));
  EXPECT_NE(Ok.find("# Bench history report"), std::string::npos);
  EXPECT_NE(Ok.find("| reference_speedup |"), std::string::npos);
  EXPECT_NE(Ok.find("Verdict: **ok**"), std::string::npos);
  EXPECT_EQ(Ok.find("REGRESSION"), std::string::npos);

  seedSyntheticRegression(Records);
  std::string Bad = renderMarkdown(analyzeHistory(Records));
  EXPECT_NE(Bad.find("Verdict: **REGRESSION**"), std::string::npos);
  EXPECT_NE(Bad.find("reference_speedup"), std::string::npos);
}

} // namespace
