//===- Trace.cpp - Structured optimizer tracing --------------------------------===//

#include "obs/Trace.h"

#include "support/Check.h"
#include "support/Format.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>

using namespace coderep;
using namespace coderep::obs;

const char *obs::candidateKindName(CandidateKind K) {
  switch (K) {
  case CandidateKind::Return:
    return "return";
  case CandidateKind::Loop:
    return "loop";
  case CandidateKind::Indirect:
    return "indirect";
  }
  CODEREP_UNREACHABLE("bad candidate kind");
}

const char *obs::candidateFateName(CandidateFate F) {
  switch (F) {
  case CandidateFate::NotTried:
    return "not-tried";
  case CandidateFate::PlanFailed:
    return "plan-failed";
  case CandidateFate::LengthCap:
    return "length-cap";
  case CandidateFate::GrowthBudget:
    return "growth-budget";
  case CandidateFate::RolledBackIrreducible:
    return "rolled-back-irreducible";
  case CandidateFate::Applied:
    return "applied";
  }
  CODEREP_UNREACHABLE("bad candidate fate");
}

const char *obs::decisionOutcomeName(DecisionOutcome O) {
  switch (O) {
  case DecisionOutcome::Replaced:
    return "replaced";
  case DecisionOutcome::FallThrough:
    return "fall-through";
  case DecisionOutcome::SelfLoop:
    return "self-loop";
  case DecisionOutcome::NoCandidate:
    return "no-candidate";
  case DecisionOutcome::AllFailed:
    return "all-failed";
  }
  CODEREP_UNREACHABLE("bad decision outcome");
}

std::string obs::formatDecision(const ReplicationDecision &D) {
  std::string Out = format(
      "decision#%llu fn=%s round=%d jump=L%d->L%d outcome=%s",
      static_cast<unsigned long long>(D.Id), D.Function.c_str(), D.Round,
      D.JumpLabel, D.TargetLabel, decisionOutcomeName(D.Outcome));
  if (D.Chosen >= 0)
    Out += format(" chosen=%s",
                  candidateKindName(D.Candidates[D.Chosen].Kind));
  Out += format(" loops=%d retargets=%d stubs=%d rtls=%lld candidates=[",
                D.LoopsCompleted, D.Step5Retargets, D.StubJumps,
                static_cast<long long>(D.ReplicatedRtls));
  for (size_t I = 0; I < D.Candidates.size(); ++I) {
    const DecisionCandidate &C = D.Candidates[I];
    if (I)
      Out += "; ";
    Out += format("%s cost=%lld path=", candidateKindName(C.Kind),
                  static_cast<long long>(C.CostRtls));
    for (size_t J = 0; J < C.PathLabels.size(); ++J)
      Out += format(J ? ",L%d" : "L%d", C.PathLabels[J]);
    Out += format(" fate=%s", candidateFateName(C.Fate));
  }
  Out += "]";
  return Out;
}

std::string obs::escapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += format("\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
      else
        Out.push_back(C);
    }
  }
  return Out;
}

TraceSink::TraceSink() : Epoch(std::chrono::steady_clock::now()) {}

uint32_t TraceSink::tidLocked() {
  std::thread::id Self = std::this_thread::get_id();
  for (const auto &[Id, Dense] : ThreadIds)
    if (Id == Self)
      return Dense;
  uint32_t Dense = static_cast<uint32_t>(ThreadIds.size());
  ThreadIds.emplace_back(Self, Dense);
  return Dense;
}

void TraceSink::begin(std::string Name, std::string Args) {
  if (!eventsEnabled())
    return;
  auto Now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(
      {EventPhase::Begin, std::move(Name), std::move(Args),
       std::chrono::duration_cast<std::chrono::microseconds>(Now - Epoch)
           .count(),
       tidLocked()});
}

void TraceSink::end(std::string Name) {
  if (!eventsEnabled())
    return;
  auto Now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(
      {EventPhase::End, std::move(Name), {},
       std::chrono::duration_cast<std::chrono::microseconds>(Now - Epoch)
           .count(),
       tidLocked()});
}

void TraceSink::instant(std::string Name, std::string Args) {
  if (!eventsEnabled())
    return;
  auto Now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(
      {EventPhase::Instant, std::move(Name), std::move(Args),
       std::chrono::duration_cast<std::chrono::microseconds>(Now - Epoch)
           .count(),
       tidLocked()});
}

void TraceSink::nameCurrentThread(std::string Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint32_t Tid = tidLocked();
  for (auto &[Id, N] : ThreadNames)
    if (Id == Tid) {
      N = std::move(Name);
      return;
    }
  ThreadNames.emplace_back(Tid, std::move(Name));
}

uint64_t TraceSink::reserveDecisionId() {
  std::lock_guard<std::mutex> Lock(Mu);
  return NextDecisionId++;
}

void TraceSink::recordDecision(ReplicationDecision D) {
  auto Now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> Lock(Mu);
  // The structured record is always kept; only the mirrored timeline event
  // obeys the events switch.
  if (eventsEnabled())
    Events.push_back(
        {EventPhase::Instant, "replication decision",
         format("\"decision\": \"%s\"", escapeJson(formatDecision(D)).c_str()),
         std::chrono::duration_cast<std::chrono::microseconds>(Now - Epoch)
             .count(),
         tidLocked()});
  Decisions.push_back(std::move(D));
}

std::vector<ReplicationDecision> TraceSink::decisions() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Decisions;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

std::vector<std::pair<uint32_t, std::string>> TraceSink::threadNames() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return ThreadNames;
}

std::string TraceSink::chromeTraceJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"traceEvents\": [\n";
  bool First = true;
  auto append = [&](const std::string &Line) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += Line;
  };
  // Metadata: name every track so Perfetto shows "worker 0" rather than a
  // bare tid. Unnamed threads get a stable default.
  for (const auto &[Self, Dense] : ThreadIds) {
    (void)Self;
    std::string Name = format("thread %u", Dense);
    for (const auto &[Tid, N] : ThreadNames)
      if (Tid == Dense)
        Name = N;
    append(format("  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                  Dense, escapeJson(Name).c_str()));
  }
  for (const TraceEvent &E : Events) {
    std::string Line = format(
        "  {\"name\": \"%s\", \"ph\": \"%c\", \"ts\": %lld, \"pid\": 1, "
        "\"tid\": %u",
        escapeJson(E.Name).c_str(), static_cast<char>(E.Phase),
        static_cast<long long>(E.TimeUs), E.Tid);
    if (E.Phase == EventPhase::Instant)
      Line += ", \"s\": \"t\"";
    if (!E.Args.empty())
      Line += format(", \"args\": {%s}", E.Args.c_str());
    Line += "}";
    append(Line);
  }
  Out += "\n]}\n";
  return Out;
}

std::string TraceSink::metricsJson() const {
  // Render flat metrics and histograms into one name-keyed map so the
  // export interleaves them in overall sorted-key order.
  std::map<std::string, std::string> Rendered;
  for (const auto &[Name, E] : Metrics.snapshotTyped())
    Rendered[Name] = format(
        "{\"value\": %lld, \"type\": \"%s\", \"unit\": \"%s\"}",
        static_cast<long long>(E.Value), E.Gauge ? "gauge" : "counter",
        metricUnit(Name));
  for (const auto &[Name, H] : Histograms.snapshot())
    Rendered[Name] = format(
        "{\"type\": \"histogram\", \"unit\": \"%s\", \"count\": %lld, "
        "\"sum\": %lld, \"min\": %lld, \"max\": %lld, \"p50\": %lld, "
        "\"p90\": %lld, \"p99\": %lld}",
        metricUnit(Name), static_cast<long long>(H.count()),
        static_cast<long long>(H.sum()), static_cast<long long>(H.min()),
        static_cast<long long>(H.max()),
        static_cast<long long>(H.quantile(0.50)),
        static_cast<long long>(H.quantile(0.90)),
        static_cast<long long>(H.quantile(0.99)));
  std::string Out = "{\n";
  bool First = true;
  for (const auto &[Name, Body] : Rendered) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += format("  \"%s\": %s", escapeJson(Name).c_str(), Body.c_str());
  }
  Out += "\n}\n";
  return Out;
}

namespace {

/// Crash-flush state: one armed sink per process. Guarded by a mutex on
/// the install/cancel side; the flush side reads racily by design (it is
/// already on a crash path).
struct CrashFlushState {
  std::mutex Mu;
  TraceSink *Sink = nullptr;
  std::string TracePath;
  bool HandlersInstalled = false;
  std::terminate_handler PrevTerminate = nullptr;
};

CrashFlushState &crashState() {
  static CrashFlushState S;
  return S;
}

/// Writes the armed sink's trace, then disarms so nested faults (a crash
/// inside the flush) cannot loop.
void crashFlushNow() {
  CrashFlushState &S = crashState();
  TraceSink *Sink = nullptr;
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Sink = S.Sink;
    Path = S.TracePath;
    S.Sink = nullptr;
  }
  if (Sink && !Path.empty())
    TraceSink::writeFile(Path, Sink->chromeTraceJson());
}

void crashFlushAtExit() { crashFlushNow(); }

void crashFlushTerminate() {
  crashFlushNow();
  std::terminate_handler Prev = crashState().PrevTerminate;
  if (Prev)
    Prev();
  std::abort();
}

void crashFlushSignal(int Sig) {
  crashFlushNow();
  std::signal(Sig, SIG_DFL);
  std::raise(Sig);
}

} // namespace

void TraceSink::installCrashFlush(TraceSink *Sink, std::string TracePath) {
  CrashFlushState &S = crashState();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Sink = Sink;
  S.TracePath = std::move(TracePath);
  if (!S.HandlersInstalled) {
    S.HandlersInstalled = true;
    std::atexit(crashFlushAtExit);
    S.PrevTerminate = std::set_terminate(crashFlushTerminate);
    std::signal(SIGTERM, crashFlushSignal);
    std::signal(SIGABRT, crashFlushSignal);
    std::signal(SIGSEGV, crashFlushSignal);
  }
}

void TraceSink::cancelCrashFlush() {
  CrashFlushState &S = crashState();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Sink = nullptr;
  S.TracePath.clear();
}

bool TraceSink::writeFile(const std::string &Path,
                          const std::string &Content) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", Path.c_str());
    return false;
  }
  size_t Written = std::fwrite(Content.data(), 1, Content.size(), F);
  std::fclose(F);
  if (Written != Content.size()) {
    std::fprintf(stderr, "obs: short write to %s\n", Path.c_str());
    return false;
  }
  return true;
}
