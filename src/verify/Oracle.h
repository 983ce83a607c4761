//===- Oracle.h - Per-pass translation-validation oracle --------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential execution oracle for the optimization pipeline. It plugs
/// into opt::PipelineOptions::Verifier, snapshots each function as the
/// pipeline transforms it, and at a configurable granularity executes the
/// snapshot and the current state under ease::Interp on a deterministic
/// battery of generated inputs (argument vectors plus initial memory
/// images derived from a seed), comparing every observable: exit code,
/// output bytes, the stubbed call-event stream, and final globals memory.
///
/// Trap runs are inconclusive, not mismatches: code motion legally hoists
/// a division above an output statement when its block dominates every
/// exit, so a trapping input may observe reordered output prefixes on the
/// two sides. Only input runs where BOTH sides finish trap-free are
/// compared (the "double-clean" rule); trap-affected inputs are counted in
/// verify.inconclusive.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_VERIFY_ORACLE_H
#define CODEREP_VERIFY_ORACLE_H

#include "cfg/Function.h"
#include "opt/Pipeline.h"
#include "support/NameTable.h"

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace coderep::verify {

/// How often the oracle actually executes a comparison.
enum class Granularity {
  Off,   ///< never (the verifier becomes a no-op)
  Final, ///< once per function, post-legalize vs. fully optimized
  Pass,  ///< after every pass invocation that changed the function
  Round, ///< after every fixpoint round (plus the final state)
};

/// Each granularity's name, as `--verify=` spells it.
inline constexpr support::NamedValue<Granularity> GranularityNames[] = {
    {"off", Granularity::Off},
    {"final", Granularity::Final},
    {"pass", Granularity::Pass},
    {"round", Granularity::Round}};

/// Parses "off"/"final"/"pass"/"round". Returns false on anything else.
inline bool parseGranularity(const std::string &Text, Granularity &Out) {
  return support::valueOf(GranularityNames, Text, Out);
}

/// Returns the spelling parseGranularity accepts.
inline const char *granularityName(Granularity G) {
  return support::nameOf(GranularityNames, G);
}

/// Oracle configuration.
struct OracleOptions {
  Granularity Gran = Granularity::Final;

  /// Root seed of the input battery; every (function, input-index) derives
  /// its argument vector and memory image deterministically from it.
  uint64_t Seed = 1;

  /// Inputs executed per comparison. Input 0 is a fixed vector matching
  /// the generator's canonical call f(9, 4, 2) with zeroed memory; the
  /// rest are seeded random vectors with random memory images.
  int Inputs = 4;

  /// Step budget per run; runs that exceed it are inconclusive.
  uint64_t MaxSteps = 1u << 20;

  /// When set, every executed comparison emits a "verify <fn>" span.
  obs::TraceSink *Sink = nullptr;
};

/// One detected mismatch, pinned to the pass that introduced it.
struct VerifyReport {
  /// Which observable diverged first; Divergence order is the comparison
  /// priority (output before call events before exit code before memory).
  enum class Kind { Output, CallEvent, ExitCode, Memory };

  std::string Function;
  std::string Pass;  ///< offending pass name, or "round"/"final"
  int Round = 0;     ///< 0 pre-loop, 1-based in-loop, -1 post-loop
  uint64_t Seed = 0; ///< the oracle's root seed
  int InputIndex = 0;
  Kind Divergence = Kind::Output;
  std::string Detail; ///< first diverging observable, rendered
};

/// Renders \p R as the stable single-line format the tests golden-match:
///   verify mismatch: fn=<f> pass=<p> round=<r> seed=<s> input=<i>
///   diverged=<kind>: <detail>
std::string formatReport(const VerifyReport &R);

/// The oracle's aggregate counters (exported as verify.* metrics).
struct OracleCounters {
  int64_t Checks = 0;       ///< executed comparisons
  int64_t InputsRun = 0;    ///< input vectors compared (two runs each)
  int64_t Mismatches = 0;   ///< comparisons with a diverging observable
  int64_t Inconclusive = 0; ///< inputs skipped under the double-clean rule
  /// RTLs executed by the longest run that stayed within the step budget.
  uint64_t LongestRun = 0;
};

/// The per-pass execution oracle. Thread-safe: optimizeProgram opens
/// sessions from every worker when Jobs > 1; the shared report/counter
/// state is mutex-protected, and each session is single-threaded by the
/// FunctionVerifier contract.
class Oracle final : public opt::FunctionVerifier {
public:
  explicit Oracle(const OracleOptions &Opts = {});
  ~Oracle() override;

  void beginProgram(const cfg::Program &P) override;
  std::unique_ptr<Session> makeSession(const cfg::Function &F) override;
  bool functionVerifiedClean(const std::string &Name) const override;
  void publishMetrics(obs::MetricsRegistry &M) const override;

  /// True when no mismatch has been recorded.
  bool ok() const;

  /// Snapshot of the recorded mismatches (the first 16; counters keep
  /// counting past them).
  std::vector<VerifyReport> reports() const;

  /// Snapshot of the counters.
  OracleCounters counters() const;

  const OracleOptions &options() const { return Opts; }

private:
  friend class OracleSession;

  void record(VerifyReport R);
  void tally(int64_t Checks, int64_t Inputs, int64_t Inconclusive,
             uint64_t LongestRun);

  OracleOptions Opts;
  mutable std::mutex Mu;
  std::vector<cfg::Global> Globals; ///< captured by beginProgram
  std::vector<int> Arity; ///< argument words per function id (beginProgram)
  std::vector<VerifyReport> Reports;
  std::set<std::string> Dirty; ///< functions with >= 1 mismatch
  OracleCounters Counters;
};

} // namespace coderep::verify

#endif // CODEREP_VERIFY_ORACLE_H
