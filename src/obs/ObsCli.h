//===- ObsCli.h - Shared observability flag handling ------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability outputs a binary can request and the sink and journal
/// that feed them. addFlags() declares one row per output; after parsing,
/// pass config() wherever a TraceConfig is accepted and call finish()
/// before exit to write the requested files. While a trace is requested,
/// the sink is armed for crash-safe flushing (TraceSink::installCrashFlush)
/// until finish() has written it. The sink records span events only for an
/// output that reads them (the trace, the two profiles and the DOT dumps):
/// metrics, histograms and the journal do not need them, so a long-lived
/// `--metrics-out` run keeps no event log.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_OBS_OBSCLI_H
#define CODEREP_OBS_OBSCLI_H

#include "obs/Journal.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"
#include "support/FlagTable.h"

#include <cstdio>

namespace coderep::obs {

/// Owns the sink, the journal and the requested output paths for one
/// binary.
class ObsCli {
public:
  /// \p Tool names the session in the journal header ("minic_compiler").
  explicit ObsCli(std::string Tool = "coderep")
      : SessionJournal(std::move(Tool)) {}

  /// Declares the output rows into \p Flags.
  void addFlags(support::FlagTable &Flags) {
    Flags.text("trace-out", TraceOut, "FILE", "Chrome trace-event JSON");
    Flags.text("metrics-out", MetricsOut, "FILE", "metrics JSON");
    Flags.text("profile-out", ProfileOut, "FILE", "speedscope self-profile");
    Flags.text("profile-folded", ProfileFolded, "FILE", "folded-stack profile");
    Flags.text("journal-out", JournalOut, "FILE", "per-function JSONL journal");
    Flags.text("dot-dir", DotDir, "DIR", "CFG DOT per applied replication");
  }

  /// The config to thread through the compiler; fully disabled when no
  /// flag was given, so un-instrumented runs keep the null-sink fast
  /// path. Arms crash-safe trace flushing when a trace was requested.
  TraceConfig config() {
    TraceConfig C;
    C.Sink = sink();
    if (C.Sink && !TraceOut.empty())
      TraceSink::installCrashFlush(&Sink, TraceOut);
    if (!JournalOut.empty())
      C.SessionJournal = &SessionJournal;
    C.CfgDotDir = DotDir;
    return C;
  }

  /// The sink itself, for binaries that record their own spans.
  TraceSink *sink() {
    if (!sinkWanted())
      return nullptr;
    Sink.setEventsEnabled(eventsWanted());
    return &Sink;
  }

  /// The journal, for binaries that append their own records.
  Journal *journal() { return JournalOut.empty() ? nullptr : &SessionJournal; }

  /// Writes whatever was requested. Returns false on any write failure.
  bool finish() {
    bool Ok = true;
    auto write = [&Ok](const std::string &Path, const char *What,
                       const std::string &Text, const std::string &Hint) {
      const bool Wrote = TraceSink::writeFile(Path, Text);
      if (Wrote)
        std::fprintf(stderr, "wrote %s to %s%s\n", What, Path.c_str(),
                     Hint.c_str());
      Ok &= Wrote;
    };
    if (!TraceOut.empty()) {
      write(TraceOut, "trace", Sink.chromeTraceJson(),
            " (open in Perfetto or chrome://tracing)");
      TraceSink::cancelCrashFlush();
    }
    if (!MetricsOut.empty())
      write(MetricsOut, "metrics", Sink.metricsJson(), "");
    if (!ProfileOut.empty() || !ProfileFolded.empty()) {
      Profiler P(Sink);
      if (!ProfileOut.empty())
        write(ProfileOut, "profile", P.speedscopeJson(),
              " (load at https://www.speedscope.app)");
      if (!ProfileFolded.empty())
        write(ProfileFolded, "collapsed stacks", P.collapsedStacks(),
              " (feed to flamegraph.pl)");
    }
    if (!JournalOut.empty())
      write(JournalOut, "journal", SessionJournal.jsonl(),
            " (" + std::to_string(SessionJournal.size()) + " records)");
    return Ok;
  }

private:
  bool eventsWanted() const {
    return !TraceOut.empty() || !ProfileOut.empty() ||
           !ProfileFolded.empty() || !DotDir.empty();
  }
  bool sinkWanted() const { return eventsWanted() || !MetricsOut.empty(); }

  std::string TraceOut, MetricsOut, ProfileOut, ProfileFolded, JournalOut,
      DotDir;
  TraceSink Sink;
  Journal SessionJournal;
};

} // namespace coderep::obs

#endif // CODEREP_OBS_OBSCLI_H
