//===- Oracle.cpp - Per-pass translation-validation oracle ---------------------===//
//
// The comparison battery. Each check lowers the current function into a
// single-function probe image (calls to other measured functions are
// stubbed by the interpreter) and executes it and the baseline's image on
// the same derived inputs, all on the session's one machine (a baseline
// run an earlier check already made is reused); the first diverging
// observable becomes the report.
//
//===----------------------------------------------------------------------===//

#include "verify/Oracle.h"

#include "cfg/FunctionPrinter.h"
#include "ease/Interp.h"
#include "obs/ScopedTimer.h"
#include "obs/Trace.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <optional>

using namespace coderep;
using namespace coderep::verify;

static const char *kindName(VerifyReport::Kind K) {
  switch (K) {
  case VerifyReport::Kind::Output:
    return "output";
  case VerifyReport::Kind::CallEvent:
    return "call-event";
  case VerifyReport::Kind::ExitCode:
    return "exit-code";
  case VerifyReport::Kind::Memory:
    return "memory";
  }
  return "?";
}

std::string verify::formatReport(const VerifyReport &R) {
  return format("verify mismatch: fn=%s pass=%s round=%d seed=%llu input=%d "
                "diverged=%s: %s",
                R.Function.c_str(), R.Pass.c_str(), R.Round,
                static_cast<unsigned long long>(R.Seed), R.InputIndex,
                kindName(R.Divergence), R.Detail.c_str());
}

namespace {

/// Bytes of the random initial memory image laid over the globals.
constexpr size_t MemImageBytes = 512;

/// Mismatch reports kept; the counters keep counting past them.
constexpr size_t MaxReports = 16;

/// splitmix64 finalizer; decorrelates the (seed, input, function) triple
/// before it feeds the xorshift generator.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t hashName(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ULL;
  return H;
}

/// One derived input vector: entry arguments plus an initial memory image.
struct ProbeInput {
  std::vector<int32_t> Args;
  std::vector<uint8_t> MemImage;
};

ProbeInput deriveInput(const OracleOptions &O, const std::string &Fn,
                       int Index) {
  ProbeInput In;
  if (Index == 0) {
    // The generator's canonical call (see RandomProgram.cpp): fixed small
    // arguments over zeroed memory, so at least one input exercises the
    // untouched-.bss behavior real programs start from.
    In.Args = {9, 4, 2, 0};
    return In;
  }
  Rng G(mix(O.Seed) ^ mix(hashName(Fn) + static_cast<uint64_t>(Index)));
  In.Args.resize(4);
  for (int32_t &A : In.Args)
    A = static_cast<int32_t>(G.range(-999, 999));
  In.MemImage.resize(MemImageBytes);
  for (uint8_t &B : In.MemImage)
    B = static_cast<uint8_t>(G.next());
  return In;
}

/// Executes probe image \p Img on \p In. \p Arity carries the whole
/// program's per-callee argument-word counts so stubbed call events record
/// declared arguments only (the caller's frame beyond them is not an
/// observable).
ease::RunResult runProbe(ease::Machine &M, const ease::Image &Img,
                         const std::vector<int> &Arity,
                         const OracleOptions &O, const ProbeInput &In,
                         uint64_t StubSeed) {
  ease::RunOptions RO;
  RO.MaxSteps = O.MaxSteps;
  RO.EntryFunction = 0;
  RO.EntryArgs = In.Args;
  RO.StubCalls = true;
  RO.StubSeed = StubSeed;
  RO.StubArity = &Arity;
  RO.CaptureGlobals = true;
  if (!In.MemImage.empty())
    RO.MemImage = &In.MemImage;
  return M.run(Img, RO);
}

std::string renderCallEvent(const ease::RunResult::CallEvent &E) {
  return format("call f#%d(%d, %d, %d, %d) -> %d", E.Callee, E.Args[0],
                E.Args[1], E.Args[2], E.Args[3], E.Rv);
}

/// Compares two clean runs; fills Kind/Detail and returns true on a
/// divergence. Priority: output bytes, then the call-event stream, then
/// the exit code, then final globals memory.
bool firstDivergence(const ease::RunResult &A, const ease::RunResult &B,
                     VerifyReport::Kind &Kind, std::string &Detail) {
  if (A.Output != B.Output) {
    Kind = VerifyReport::Kind::Output;
    size_t I = 0;
    while (I < A.Output.size() && I < B.Output.size() &&
           A.Output[I] == B.Output[I])
      ++I;
    if (I < A.Output.size() && I < B.Output.size())
      Detail = format("output byte %zu: 0x%02x vs 0x%02x", I,
                      static_cast<unsigned char>(A.Output[I]),
                      static_cast<unsigned char>(B.Output[I]));
    else
      Detail = format("output length %zu vs %zu (first %zu bytes equal)",
                      A.Output.size(), B.Output.size(), I);
    return true;
  }
  if (A.CallEvents != B.CallEvents) {
    Kind = VerifyReport::Kind::CallEvent;
    size_t I = 0;
    while (I < A.CallEvents.size() && I < B.CallEvents.size() &&
           A.CallEvents[I] == B.CallEvents[I])
      ++I;
    if (I < A.CallEvents.size() && I < B.CallEvents.size())
      Detail = format("event %zu: %s vs %s", I,
                      renderCallEvent(A.CallEvents[I]).c_str(),
                      renderCallEvent(B.CallEvents[I]).c_str());
    else
      Detail = format("call count %zu vs %zu", A.CallEvents.size(),
                      B.CallEvents.size());
    return true;
  }
  if (A.ExitCode != B.ExitCode) {
    Kind = VerifyReport::Kind::ExitCode;
    Detail = format("exit code %d vs %d", A.ExitCode, B.ExitCode);
    return true;
  }
  if (A.GlobalsMem != B.GlobalsMem) {
    Kind = VerifyReport::Kind::Memory;
    size_t I = 0;
    while (I < A.GlobalsMem.size() && I < B.GlobalsMem.size() &&
           A.GlobalsMem[I] == B.GlobalsMem[I])
      ++I;
    if (I < A.GlobalsMem.size() && I < B.GlobalsMem.size())
      Detail = format("globals byte %zu: 0x%02x vs 0x%02x", I,
                      A.GlobalsMem[I], B.GlobalsMem[I]);
    else
      Detail = format("globals size %zu vs %zu", A.GlobalsMem.size(),
                      B.GlobalsMem.size());
    return true;
  }
  return false;
}

} // namespace

namespace coderep::verify {

/// One function's observer: keeps the most recent validated state as the
/// baseline (lowered once, as an image) and, whenever the configured
/// granularity fires, executes baseline vs. current on the input battery.
class OracleSession final : public opt::FunctionVerifier::Session {
public:
  OracleSession(Oracle &O, const cfg::Function &F)
      : O(O), Baseline(F, O.Globals), BaselineText(cfg::toString(F)),
        BaselineRuns(static_cast<size_t>(O.Opts.Inputs)) {}

  void afterPass(opt::Phase Ph, int Round, const cfg::Function &F,
                 bool Changed) override {
    if (O.Opts.Gran == Granularity::Pass && Changed)
      check(opt::phaseName(Ph), Round, F);
  }

  void endRound(int Round, const cfg::Function &F) override {
    if (O.Opts.Gran == Granularity::Round)
      check("round", Round, F);
  }

  void endFunction(const cfg::Function &F) override {
    // Every granularity ends with a final check; at Pass/Round the
    // baseline has been rolling forward, so this covers the tail of the
    // pipeline (register allocation through delay slots) the in-loop
    // events don't.
    check("final", -1, F);
  }

private:
  void check(const char *Pass, int Round, const cfg::Function &F);

  Oracle &O;
  ease::Image Baseline;
  std::string BaselineText;
  /// The baseline's result per input, where an earlier check already ran
  /// the same image on it (as that check's current side): a deterministic
  /// run need not be repeated.
  std::vector<std::optional<ease::RunResult>> BaselineRuns;
  ease::Machine M; ///< runs every probe of this session
};

void OracleSession::check(const char *Pass, int Round, const cfg::Function &F) {
  std::string CurText = cfg::toString(F);
  if (CurText == BaselineText)
    return; // byte-identical: nothing to execute

  // The check_us histogram stays live when span events are muted, so the
  // clock runs independently of the span below (whose strings are only
  // built when an event will actually be recorded).
  const auto CheckStart = std::chrono::steady_clock::now();
  const bool Events = O.Opts.Sink && O.Opts.Sink->eventsEnabled();
  obs::ScopedTimer Span(
      O.Opts.Sink, Events ? "verify " + F.Name : std::string(), nullptr,
      Events ? format("\"function\": \"%s\", \"pass\": \"%s\", "
                      "\"round\": %d",
                      obs::escapeJson(F.Name).c_str(), Pass, Round)
             : std::string());

  ease::Image Current(F, O.Globals);
  std::vector<std::optional<ease::RunResult>> CurrentRuns(BaselineRuns.size());
  int64_t InputsRun = 0, Inconclusive = 0;
  uint64_t Longest = 0;
  auto probe = [&](const ease::Image &Img, const ProbeInput &In,
                   uint64_t StubSeed) {
    ease::RunResult Run = runProbe(M, Img, O.Arity, O.Opts, In, StubSeed);
    if (Run.TrapKind != ease::Trap::StepLimit)
      Longest = std::max(Longest, Run.Stats.Executed);
    return Run;
  };
  for (int I = 0; I < O.Opts.Inputs; ++I) {
    const ProbeInput In = deriveInput(O.Opts, F.Name, I);
    const uint64_t StubSeed = mix(O.Opts.Seed ^ static_cast<uint64_t>(I));
    std::optional<ease::RunResult> &A = BaselineRuns[I];
    if (!A)
      A = probe(Baseline, In, StubSeed);
    ++InputsRun;
    // Double-clean rule: a trap on either side (including the step limit)
    // makes the input inconclusive - legal code motion may reorder a trap
    // relative to output, so partial observations are not comparable. A
    // trapped baseline settles that without running the current side.
    if (!A->ok()) {
      ++Inconclusive;
      continue;
    }
    std::optional<ease::RunResult> &B = CurrentRuns[I];
    B = probe(Current, In, StubSeed);
    if (!B->ok()) {
      ++Inconclusive;
      continue;
    }
    VerifyReport R;
    if (firstDivergence(*A, *B, R.Divergence, R.Detail)) {
      R.Function = F.Name;
      R.Pass = Pass;
      R.Round = Round;
      R.Seed = O.Opts.Seed;
      R.InputIndex = I;
      O.record(std::move(R));
      break; // first mismatch pins the pass; further inputs add nothing
    }
  }
  O.tally(1, InputsRun, Inconclusive, Longest);

  // Validated (or reported): the current state becomes the next baseline,
  // so each report names the single pass that introduced the divergence.
  // Its runs so far are the next check's baseline runs.
  Baseline = std::move(Current);
  BaselineText = std::move(CurText);
  BaselineRuns = std::move(CurrentRuns);

  if (O.Opts.Sink)
    O.Opts.Sink->histograms().record(
        "verify.check_us",
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - CheckStart)
            .count());
}

} // namespace coderep::verify

Oracle::Oracle(const OracleOptions &Opts) : Opts(Opts) {}

Oracle::~Oracle() = default;

void Oracle::beginProgram(const cfg::Program &P) {
  std::lock_guard<std::mutex> Lock(Mu);
  Globals = P.Globals;
  Arity.clear();
  for (const auto &F : P.Functions)
    Arity.push_back(F->ParamBytes / 4);
}

std::unique_ptr<opt::FunctionVerifier::Session>
Oracle::makeSession(const cfg::Function &F) {
  if (Opts.Gran == Granularity::Off)
    return nullptr;
  return std::make_unique<OracleSession>(*this, F);
}

bool Oracle::functionVerifiedClean(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Opts.Gran != Granularity::Off && !Dirty.count(Name);
}

void Oracle::publishMetrics(obs::MetricsRegistry &M) const {
  const OracleCounters C = counters();
  M.set("verify.checks", C.Checks);
  M.set("verify.inputs_run", C.InputsRun);
  M.set("verify.mismatches", C.Mismatches);
  M.set("verify.inconclusive", C.Inconclusive);
}

bool Oracle::ok() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters.Mismatches == 0;
}

std::vector<VerifyReport> Oracle::reports() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Reports;
}

OracleCounters Oracle::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Counters;
}

void Oracle::record(VerifyReport R) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Counters.Mismatches;
  Dirty.insert(R.Function);
  if (Reports.size() < MaxReports)
    Reports.push_back(std::move(R));
}

void Oracle::tally(int64_t Checks, int64_t Inputs, int64_t Inconclusive,
                   uint64_t LongestRun) {
  std::lock_guard<std::mutex> Lock(Mu);
  Counters.Checks += Checks;
  Counters.InputsRun += Inputs;
  Counters.Inconclusive += Inconclusive;
  Counters.LongestRun = std::max(Counters.LongestRun, LongestRun);
}
