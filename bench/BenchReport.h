//===- BenchReport.h - BENCH_history.jsonl trend analysis -------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the append-only BENCH_history.jsonl that bench_compile grows one
/// line per run, compares the newest record against a median-of-window
/// baseline, and flags regressions. Only machine-normalized ratio metrics
/// gate (reference_speedup, obs_overhead): absolute microsecond totals vary
/// with the machine the history was recorded on, so those are reported as
/// informational deltas only.
///
/// The analysis is a plain function over parsed records so both the
/// bench_report tool and the unit tests can drive it without touching the
/// filesystem.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_BENCH_BENCHREPORT_H
#define CODEREP_BENCH_BENCHREPORT_H

#include "support/FlagTable.h"

#include <map>
#include <string>
#include <vector>

namespace coderep::bench {

/// One line of BENCH_history.jsonl: flat JSON object split into numeric
/// and string fields. Unknown keys are kept; nested values are skipped.
struct BenchRecord {
  std::map<std::string, double> Nums;
  std::map<std::string, std::string> Strs;
};

/// Parses a whole .jsonl body (one flat JSON object per line; blank lines
/// ignored). Returns false and sets \p Err on the first malformed line.
bool parseBenchHistory(const std::string &Text,
                       std::vector<BenchRecord> &Records, std::string &Err);

struct ReportOptions {
  /// A gated metric moving more than this many percent against its good
  /// direction fails the report.
  double ThresholdPct = 10.0;
  /// Baseline is the median over up to this many git SHAs preceding the
  /// last record's own SHA, each SHA contributing the median of its
  /// records, so repeated runs at one commit weigh as one.
  int Window = 5;

  /// Declares the --threshold=PCT (a number > 0) and --window=N (>= 1)
  /// rows into \p Flags.
  void addFlags(support::FlagTable &Flags);
};

/// One metric's comparison of the last record against the window median.
struct MetricRow {
  std::string Name;
  double Baseline = 0.0; ///< Median of the window (valid if HasBaseline).
  double Last = 0.0;
  double DeltaPct = 0.0; ///< Signed percent change vs Baseline.
  bool HasBaseline = false; ///< False when no earlier record has the metric.
  bool Gated = false;       ///< Ratio metric that can fail the report.
  bool LowerIsBetter = false; ///< Good direction for a gated metric.
  bool Flagged = false;       ///< Gated and beyond threshold the wrong way.
};

struct BenchReportResult {
  std::vector<MetricRow> Rows; ///< Sorted by metric name.
  std::vector<std::string> Flagged; ///< Names of flagged rows.
  size_t RecordCount = 0;
  size_t WindowUsed = 0;    ///< Git SHAs actually in the baseline window.
  std::string LastSha, LastDate;
  bool ok() const { return Flagged.empty(); }
};

/// Compares the last record in \p Records against the median of the
/// preceding window. When no earlier record has a different git SHA, every
/// row is baseline-less and nothing can flag.
BenchReportResult analyzeHistory(const std::vector<BenchRecord> &Records,
                                 const ReportOptions &Opts = {});

/// Renders the result as a markdown document: a heading with the run
/// identity, a table of every metric, and a verdict line.
std::string renderMarkdown(const BenchReportResult &R,
                           const ReportOptions &Opts = {});

/// Appends a copy of the last record, under its own git SHA ("synthetic")
/// so the records before it form its baseline, with every gated metric
/// pushed well past the threshold in its bad direction. Used by
/// --self-check and the unit tests to prove the detector detects.
void seedSyntheticRegression(std::vector<BenchRecord> &Records);

} // namespace coderep::bench

#endif // CODEREP_BENCH_BENCHREPORT_H
