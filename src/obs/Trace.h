//===- Trace.h - Structured optimizer tracing -------------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event half of the observability layer: a thread-safe sink that
/// records
///
///  * span events (begin/end pairs, nestable, one track per thread),
///  * instant events,
///  * structured *replication decision records* - one per unconditional
///    jump the JUMPS algorithm examined, carrying every candidate sequence
///    considered with its RTL cost and fate (applied, length-capped,
///    growth-budget/loop-blowup rejection, step-6 non-reducibility
///    rollback) plus step-3 loop completions and step-5 retargets,
///
/// and exports them as Chrome trace-event JSON (loadable in Perfetto or
/// chrome://tracing) and as a flat metrics JSON (see Metrics.h).
///
/// Cost model: everything is keyed off a TraceSink pointer. A null sink
/// means tracing is disabled, and every instrumentation site reduces to a
/// pointer test - no clock reads, no string formatting, no allocation.
/// Decision records are formatted deterministically (no timestamps) by
/// formatDecision(), which is what the golden decision-log tests pin.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OBS_TRACE_H
#define CODEREP_OBS_TRACE_H

#include "obs/Histogram.h"
#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace coderep::obs {

/// Chrome trace-event phases the sink records.
enum class EventPhase : char {
  Begin = 'B',   ///< span start ("ph":"B")
  End = 'E',     ///< span end ("ph":"E")
  Instant = 'i', ///< point event ("ph":"i")
};

/// One recorded event. Args is a pre-rendered JSON object *body* (the text
/// between the braces, e.g. "\"round\": 3"), empty for none.
struct TraceEvent {
  EventPhase Phase = EventPhase::Instant;
  std::string Name;
  std::string Args;
  int64_t TimeUs = 0; ///< microseconds since the sink's epoch
  uint32_t Tid = 0;   ///< dense per-sink thread id, in registration order
};

/// Sequence kinds the JUMPS step 2 considers for one jump.
enum class CandidateKind {
  Return,   ///< sequence ending in a return block ("favoring returns")
  Loop,     ///< sequence linking to the next block ("favoring loops")
  Indirect, ///< Section-6 extension: sequence ending at an indirect jump
};

/// What happened to one candidate sequence.
enum class CandidateFate {
  NotTried,              ///< an earlier candidate was applied first
  PlanFailed,            ///< could not be turned into a copy plan
  LengthCap,             ///< rejected by ReplicationOptions::MaxSequenceRtls
  GrowthBudget,          ///< rejected by the loop-blowup/growth backstop
  RolledBackIrreducible, ///< applied, then undone by the step-6 check
  Applied,               ///< spliced in and kept
};

/// One candidate sequence considered for a jump.
struct DecisionCandidate {
  CandidateKind Kind = CandidateKind::Return;
  int64_t CostRtls = 0;        ///< step-1 matrix cost (RTLs to replicate)
  std::vector<int> PathLabels; ///< block labels of the sequence, copy order
  CandidateFate Fate = CandidateFate::NotTried;
};

/// Overall outcome of examining one unconditional jump.
enum class DecisionOutcome {
  Replaced,    ///< a candidate was applied and survived step 6
  FallThrough, ///< jump targeted the next block; deleted outright
  SelfLoop,    ///< jump closes an infinite loop; never replaceable
  NoCandidate, ///< the matrix offered no sequence at all
  AllFailed,   ///< every candidate was rejected or rolled back
};

/// The structured record of one replication decision.
struct ReplicationDecision {
  uint64_t Id = 0;       ///< dense per-sink id, in record order
  std::string Function;  ///< function being optimized
  int Round = 0;         ///< 1-based replication round within one runJumps
  int JumpLabel = -1;    ///< label of the block ending in the jump
  int TargetLabel = -1;  ///< the jump's target label
  std::vector<DecisionCandidate> Candidates; ///< in attempt order
  int Chosen = -1;       ///< index into Candidates, -1 if none applied
  DecisionOutcome Outcome = DecisionOutcome::NoCandidate;
  int LoopsCompleted = 0;    ///< step-3 whole-loop inclusions
  int Step5Retargets = 0;    ///< step-5 branch retargets
  int StubJumps = 0;         ///< stub jump blocks materialized
  int64_t ReplicatedRtls = 0; ///< RTLs actually copied (0 unless Replaced)
};

const char *candidateKindName(CandidateKind K);
const char *candidateFateName(CandidateFate F);
const char *decisionOutcomeName(DecisionOutcome O);

/// Renders \p D as one deterministic, timestamp-free line, e.g.
///   decision#0 fn=w round=1 jump=L3->L0 outcome=replaced chosen=loop
///   loops=1 retargets=0 stubs=0 rtls=5 candidates=[return cost=8
///   path=L0,L2 fate=not-tried; loop cost=5 path=L0 fate=applied]
/// This is the golden-log format: byte-stable across runs and platforms.
std::string formatDecision(const ReplicationDecision &D);

/// Escapes \p S for inclusion inside a JSON string literal.
std::string escapeJson(const std::string &S);

/// The thread-safe event sink. One sink typically spans one process run;
/// several threads (the bench ThreadPool workers) may record concurrently
/// and each is assigned its own track in the Chrome-trace export.
class TraceSink {
public:
  TraceSink();

  /// Records a span begin; pair with end() of the same name on the same
  /// thread. Spans nest.
  void begin(std::string Name, std::string Args = {});
  void end(std::string Name);

  /// Records a point event.
  void instant(std::string Name, std::string Args = {});

  /// Names the calling thread's track in the export ("worker 2"). Without
  /// an explicit name a thread exports as "thread <id>".
  void nameCurrentThread(std::string Name);

  /// The flat named-metric registry exported by metricsJson().
  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }

  /// The latency-distribution registry, exported alongside the flat
  /// metrics by metricsJson() (entries of "type": "histogram").
  HistogramRegistry &histograms() { return Histograms; }
  const HistogramRegistry &histograms() const { return Histograms; }

  /// Gates span/instant *event* recording while leaving metrics,
  /// histograms and decision records live. Lets a caller (ObsCli when no
  /// requested output reads events, the bench's obs-overhead sweep) keep
  /// the cheap aggregates without paying per-event clock reads and buffer
  /// growth.
  void setEventsEnabled(bool Enabled) {
    EventsEnabled.store(Enabled, std::memory_order_relaxed);
  }
  bool eventsEnabled() const {
    return EventsEnabled.load(std::memory_order_relaxed);
  }

  /// Reserves the next decision id. Ids are dense per sink; reserving
  /// before recording lets producers key side outputs (CFG DOT dumps) to
  /// the id the record will carry.
  uint64_t reserveDecisionId();

  /// Stores \p D and emits a matching instant event on the caller's track.
  void recordDecision(ReplicationDecision D);

  /// Snapshot of all decision records, in record order.
  std::vector<ReplicationDecision> decisions() const;

  /// Snapshot of all events, in record order.
  std::vector<TraceEvent> events() const;

  /// Snapshot of (dense tid, track name) pairs set via nameCurrentThread.
  std::vector<std::pair<uint32_t, std::string>> threadNames() const;

  /// Chrome trace-event JSON: {"traceEvents": [...]} with one metadata
  /// thread_name event per track. Loadable in Perfetto/chrome://tracing.
  std::string chromeTraceJson() const;

  /// Metrics JSON: one object, keys sorted; each entry is itself an
  /// object carrying explicit semantics so goldens and consumers never
  /// guess from position or name:
  ///   "driver.fns": {"value": 3, "type": "counter", "unit": "count"}
  ///   "fn.compile_us": {"type": "histogram", "unit": "us", "count": ...,
  ///                     "sum": ..., "min": ..., "max": ..., "p50": ...,
  ///                     "p90": ..., "p99": ...}
  std::string metricsJson() const;

  /// Writes \p Content to \p Path; returns false (and reports to stderr)
  /// on failure.
  static bool writeFile(const std::string &Path, const std::string &Content);

  /// Arms crash-safe flushing: if the process exits (atexit), terminates
  /// (std::terminate) or dies on SIGTERM/SIGABRT/SIGSEGV before
  /// cancelCrashFlush(), the events recorded so far are written to
  /// \p TracePath as complete, parseable Chrome-trace JSON - truncated at
  /// the crash point but never syntactically broken. One sink may be
  /// armed at a time; arming a second replaces the first. The signal path
  /// formats JSON and is therefore not async-signal-safe - acceptable for
  /// a best-effort crash artifact, not a substitute for the normal
  /// end-of-run write.
  static void installCrashFlush(TraceSink *Sink, std::string TracePath);

  /// Disarms crash-safe flushing (call after the normal export succeeds).
  static void cancelCrashFlush();

private:
  uint32_t tidLocked(); ///< caller holds Mu

  mutable std::mutex Mu;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<TraceEvent> Events;
  std::vector<ReplicationDecision> Decisions;
  std::vector<std::pair<std::thread::id, uint32_t>> ThreadIds;
  std::vector<std::pair<uint32_t, std::string>> ThreadNames;
  uint64_t NextDecisionId = 0;
  MetricsRegistry Metrics;
  HistogramRegistry Histograms;
  std::atomic<bool> EventsEnabled{true};
};

class Journal;

/// How tracing is threaded through the compiler: a sink plus side-output
/// knobs. Passed by value; a default-constructed TraceConfig disables
/// everything.
struct TraceConfig {
  TraceSink *Sink = nullptr;

  /// When non-null, the pipeline appends one schema-versioned JSONL
  /// record per compiled function (see Journal.h). Independent of Sink:
  /// a journal can run with tracing off and vice versa.
  Journal *SessionJournal = nullptr;

  /// When non-empty, every *applied* replication decision dumps the
  /// function's flow graph as Graphviz DOT before and after the splice,
  /// into <CfgDotDir>/<function>_d<id>_{before,after}.dot where <id> is
  /// the decision-record id.
  std::string CfgDotDir;

  bool enabled() const { return Sink != nullptr; }

  /// True when span/instant events will actually be recorded: a sink is
  /// attached and its events switch is on. Call sites use this to skip
  /// building span names and args strings in the muted always-on
  /// configuration, where only metrics/histograms/journals are live.
  bool eventsActive() const { return Sink && Sink->eventsEnabled(); }
};

} // namespace coderep::obs

#endif // CODEREP_OBS_TRACE_H
