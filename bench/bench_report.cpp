//===- bench_report.cpp - Trend gate over BENCH_history.jsonl -------------===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
// Reads the history bench_compile appends to, compares the newest run
// against a median-of-window baseline, prints a markdown report, and
// exits nonzero when a machine-normalized ratio metric regressed beyond
// the threshold. run_benches.sh and CI's perf-regression job call this
// instead of eyeballing deltas.
//
// Usage:
//   bench_report [HISTORY.jsonl] [--threshold=PCT] [--window=N]
//                [--markdown-out=FILE] [--self-check]
//
// Exit codes: 0 healthy, 1 regression flagged (or self-check failure),
// 2 usage or parse error.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"
#include "support/FlagTable.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace coderep::bench;

namespace {

int selfCheck(const ReportOptions &Opts) {
  // A short healthy series, one record per commit: the detector must stay
  // quiet on it...
  std::vector<BenchRecord> Records;
  for (int I = 0; I < 4; ++I) {
    BenchRecord R;
    R.Strs["git_sha"] = "selfcheck" + std::to_string(I);
    R.Strs["date"] = "2026-01-01T00:00:00Z";
    R.Nums["reference_speedup"] = 1.25 + 0.01 * I;
    R.Nums["obs_overhead"] = 1.01;
    R.Nums["end_to_end_us"] = 900000 + 1000 * I;
    Records.push_back(std::move(R));
  }
  BenchReportResult Clean = analyzeHistory(Records, Opts);
  if (!Clean.ok()) {
    std::fprintf(stderr, "self-check FAILED: clean series was flagged\n");
    return 1;
  }
  // ...and every gate must fire once a synthetic regression is appended.
  seedSyntheticRegression(Records);
  BenchReportResult Bad = analyzeHistory(Records, Opts);
  size_t Gated = 0;
  for (const MetricRow &Row : Bad.Rows)
    Gated += Row.Gated;
  if (Gated == 0 || Bad.Flagged.size() != Gated) {
    std::fprintf(stderr, "self-check FAILED: the seeded regression tripped "
                         "%zu of %zu gate(s)\n",
                 Bad.Flagged.size(), Gated);
    return 1;
  }
  std::printf("self-check ok: clean series passes, seeded regression is "
              "flagged (%zu metric(s))\n",
              Bad.Flagged.size());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path = "BENCH_history.jsonl", MarkdownOut;
  ReportOptions Opts;
  bool SelfCheck = false;

  coderep::support::FlagTable Flags("bench_report");
  Flags.positional(Path, "HISTORY.jsonl", "default BENCH_history.jsonl");
  Opts.addFlags(Flags);
  Flags.text("markdown-out", MarkdownOut, "FILE", "also write the report");
  Flags.flag("self-check", SelfCheck, "test the gates on a seeded regression");
  Flags.parseOrExit(Argc, Argv);
  if (SelfCheck)
    return selfCheck(Opts);

  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "bench_report: cannot read %s\n", Path.c_str());
    return 2;
  }
  std::ostringstream SS;
  SS << In.rdbuf();

  std::vector<BenchRecord> Records;
  std::string Err;
  if (!parseBenchHistory(SS.str(), Records, Err)) {
    std::fprintf(stderr, "bench_report: %s: %s\n", Path.c_str(), Err.c_str());
    return 2;
  }

  BenchReportResult R = analyzeHistory(Records, Opts);
  std::string Markdown = renderMarkdown(R, Opts);
  std::printf("%s", Markdown.c_str());
  if (!MarkdownOut.empty()) {
    std::ofstream Out(MarkdownOut, std::ios::binary);
    if (!Out) {
      std::fprintf(stderr, "bench_report: cannot write %s\n",
                   MarkdownOut.c_str());
      return 2;
    }
    Out << Markdown;
  }
  return R.ok() ? 0 : 1;
}
