//===- bench_compile.cpp - Reference-vs-default compile-time benchmark --------===//
//
// Measures the two compile-time ratios that bench/e2e, the benchmark of
// record, cannot: both compare two configurations of the same compile.
// Writes OUT.json (default BENCH_compile.json) and appends one record to
// ./BENCH_history.jsonl, whose ratios bench_report gates.
//
//  * reference_speedup - JUMPS compile wall-clock of every Table-3 program
//    on both targets under the reference pipeline
//    (PipelineOptions::Reference: the Figure-3 fixpoint loop rerunning the
//    whole pass battery every round, the four register-level passes as
//    separate slots, every analysis - the step-1 shortest-path matrix
//    included - recomputed at every query) over the same under the default
//    pipeline. Both produce identical code (ReferencePipelineTest compiles
//    the suite and 200 random programs both ways), so the ratio is pure
//    compile throughput. Each compile is repeated and the fastest
//    repetition kept, which filters scheduler noise.
//  * obs_overhead - what histogram + journal recording costs on top of a
//    plain default-pipeline compile, next to the fn.compile_us quantiles
//    the instrumented side recorded (fn_compile_p{50,90,99}_us).
//
// Usage: bench_compile [OUT.json] [observability flags]
//
// Every compile is timed serially, one at a time: with four timed at once
// on a 4-vCPU machine, single fastest-of-3 timings saw 5x outliers and
// failed the per-program regression check on about half the runs.
//
// Exit status: 2 on any other option; 1 when a program's default compile
// is slower than its reference compile beyond noise, confirmed by timing
// the pair again (see checkNoRegression), or an output cannot be written;
// else 0.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "obs/Journal.h"
#include "obs/ObsCli.h"
#include "obs/ScopedTimer.h"
#include "support/FlagTable.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <limits>
#include <string>
#include <vector>

using namespace coderep;
using namespace coderep::bench;

namespace {

/// Wall-clock microseconds of one JUMPS compile of \p BP under \p Options.
/// A compile error ends the run: the suite must compile.
int64_t compileUs(const BenchProgram &BP, target::TargetKind TK,
                  const opt::PipelineOptions &Options) {
  auto Start = std::chrono::steady_clock::now();
  driver::Compilation C =
      driver::compile(BP.Source, TK, opt::OptLevel::Jumps, &Options);
  auto End = std::chrono::steady_clock::now();
  if (!C.ok()) {
    std::fprintf(stderr, "compile error in %s: %s\n", BP.Name.c_str(),
                 C.Error.c_str());
    std::exit(1);
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
      .count();
}

/// Fastest of \p Reps compiles. \p Trace, when non-null, spans every
/// repetition (and is threaded into the compile), which of course perturbs
/// the timings - trace a bench run to see where its time goes, not to
/// report numbers.
int64_t fastestUs(const BenchProgram &BP, target::TargetKind TK,
                  opt::PipelineOptions Options, int Reps,
                  obs::TraceSink *Trace, const char *Config) {
  Options.Trace.Sink = Trace;
  int64_t Best = std::numeric_limits<int64_t>::max();
  for (int R = 0; R < Reps; ++R) {
    obs::ScopedTimer Span(Trace, Trace ? format("compile %s/%s %s",
                                                BP.Name.c_str(),
                                                target::targetName(TK), Config)
                                       : std::string());
    Best = std::min(Best, compileUs(BP, TK, Options));
  }
  return Best;
}

/// Fails the run when a default-pipeline compile is slower than the
/// reference-pipeline compile of the same program beyond measurement
/// noise. Every layered speedup (caching, scheduling, arena) is supposed to
/// be monotone per program, not just in aggregate; a real inversion is a
/// bug (an earlier BENCH_compile.json shipped one for sort/m68). The 25%
/// tolerance absorbs timer jitter on sub-millisecond compiles. A pair that
/// trips it is timed again - both pipelines, alternating, fastest of 9 -
/// and fails only if the re-timed pair trips it too: on a shared 4-vCPU
/// VM, other tenants' load moved one fastest-of-3 timing of a ~1.2 ms
/// compile past the tolerance in about one serial run of twelve.
bool checkNoRegression(const BenchProgram &BP, target::TargetKind TK,
                       const opt::PipelineOptions &Reference,
                       int64_t ReferenceUs, int64_t DefaultUs,
                       obs::TraceSink *Trace) {
  auto withinTolerance = [](int64_t RefUs, int64_t DefUs) {
    return DefUs <= RefUs + RefUs / 4;
  };
  if (withinTolerance(ReferenceUs, DefaultUs))
    return true;
  const int ConfirmReps = 9;
  int64_t RetimedRefUs = std::numeric_limits<int64_t>::max();
  int64_t RetimedDefUs = RetimedRefUs;
  for (int R = 0; R < ConfirmReps; ++R) {
    RetimedRefUs = std::min(RetimedRefUs, fastestUs(BP, TK, Reference, 1, Trace,
                                                    "jumps-baseline"));
    RetimedDefUs = std::min(
        RetimedDefUs, fastestUs(BP, TK, {}, 1, Trace, "jumps-optimized"));
  }
  const bool Confirmed = !withinTolerance(RetimedRefUs, RetimedDefUs);
  std::fprintf(stderr,
               "%s: %s/%s optimized %lld us exceeds baseline %lld us by more "
               "than 25%%; re-timed (fastest of %d, alternating): optimized "
               "%lld us, baseline %lld us\n",
               Confirmed ? "REGRESSION" : "note", BP.Name.c_str(),
               target::targetName(TK), static_cast<long long>(DefaultUs),
               static_cast<long long>(ReferenceUs), ConfirmReps,
               static_cast<long long>(RetimedDefUs),
               static_cast<long long>(RetimedRefUs));
  return !Confirmed;
}

/// Best-effort "git rev-parse --short HEAD"; "unknown" outside a checkout.
std::string gitSha() {
  std::string Sha = "unknown";
  if (std::FILE *P = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char Buf[64] = {};
    if (std::fgets(Buf, sizeof(Buf), P)) {
      Sha.assign(Buf);
      while (!Sha.empty() && (Sha.back() == '\n' || Sha.back() == '\r'))
        Sha.pop_back();
      if (Sha.empty())
        Sha = "unknown";
    }
    pclose(P);
  }
  return Sha;
}

std::string isoUtcNow() {
  std::time_t Now = std::time(nullptr);
  std::tm Tm = {};
  gmtime_r(&Now, &Tm);
  char Buf[32];
  std::strftime(Buf, sizeof(Buf), "%Y-%m-%dT%H:%M:%SZ", &Tm);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  obs::ObsCli Obs("bench_compile");
  std::string OutPath = "BENCH_compile.json";
  support::FlagTable Flags("bench_compile");
  Flags.positional(OutPath, "OUT.json", "results (default BENCH_compile.json)");
  Obs.addFlags(Flags);
  Flags.parseOrExit(argc, argv);
  obs::TraceSink *Trace = Obs.sink();
  const int Reps = 3;

  opt::PipelineOptions Reference;
  Reference.Reference = true;

  // One task per (target, program): the reference and the default
  // pipeline timed back to back, one compile at a time.
  std::vector<std::pair<target::TargetKind, const BenchProgram *>> Tasks;
  for (target::TargetKind TK :
       {target::TargetKind::Sparc, target::TargetKind::M68})
    for (const BenchProgram &BP : suite())
      Tasks.emplace_back(TK, &BP);

  auto SweepStart = std::chrono::steady_clock::now();
  int64_t ReferenceTotalUs = 0, DefaultTotalUs = 0;
  bool AllMonotone = true;
  std::string ProgramsJson;
  for (const auto &[TK, BP] : Tasks) {
    const int64_t ReferenceUs =
        fastestUs(*BP, TK, Reference, Reps, Trace, "jumps-baseline");
    const int64_t DefaultUs =
        fastestUs(*BP, TK, {}, Reps, Trace, "jumps-optimized");
    ReferenceTotalUs += ReferenceUs;
    DefaultTotalUs += DefaultUs;
    AllMonotone &=
        checkNoRegression(*BP, TK, Reference, ReferenceUs, DefaultUs, Trace);

    if (!ProgramsJson.empty())
      ProgramsJson += ",\n";
    ProgramsJson += format(
        "    {\"program\": \"%s\", \"target\": \"%s\", "
        "\"jumps_baseline_us\": %lld, \"jumps_optimized_us\": %lld}",
        BP->Name.c_str(), target::targetName(TK),
        static_cast<long long>(ReferenceUs),
        static_cast<long long>(DefaultUs));

    std::printf("%-10s %-5s jumps: baseline %8lld us, optimized %8lld us "
                "(%.2fx)\n",
                BP->Name.c_str(), target::targetName(TK),
                static_cast<long long>(ReferenceUs),
                static_cast<long long>(DefaultUs),
                DefaultUs > 0
                    ? static_cast<double>(ReferenceUs) / DefaultUs
                    : 0.0);
  }
  const int64_t EndToEndUs =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - SweepStart)
          .count();
  double Speedup = DefaultTotalUs > 0
                       ? static_cast<double>(ReferenceTotalUs) /
                             static_cast<double>(DefaultTotalUs)
                       : 0.0;

  // Telemetry overhead: what histogram + journal recording costs on top
  // of a plain compile, in the always-on configuration the 2% budget is
  // about -- a TraceSink and Journal attached but span/instant events
  // muted (setEventsEnabled(false)). Whole-sweep A/B timing is too noisy
  // for a single-digit-percent effect (the JUMPS sweep runs in tens of
  // ms, and adjacent sweeps drift by more than the budget), so the
  // measurement alternates per TASK: each program compiles bare then
  // instrumented back to back, ObsReps times, and each side keeps its
  // per-task fastest before summing. Clock ramps hit both sides of a
  // pair equally, and min-of-reps strips scheduler hiccups. The sink and
  // journal persist across all instrumented compiles (a long-lived
  // session), so the journal holds ObsReps records per function and the
  // histogram quantiles pool every rep of the same distribution.
  const int ObsReps = std::max(Reps, 9);
  obs::TraceSink ObsSink;
  ObsSink.setEventsEnabled(false);
  obs::Journal ObsJournal("bench_compile");
  opt::PipelineOptions Bare, Instrumented;
  Instrumented.Trace.Sink = &ObsSink;
  Instrumented.Trace.SessionJournal = &ObsJournal;
  int64_t ObsOffUs = 0;
  int64_t ObsOnUs = 0;
  for (const auto &[TK, BP] : Tasks) {
    int64_t BestOff = std::numeric_limits<int64_t>::max();
    int64_t BestOn = std::numeric_limits<int64_t>::max();
    for (int R = 0; R < ObsReps; ++R) {
      // Alternating which side goes first cancels monotone clock ramps: a
      // fixed order would systematically charge the ramp to one side.
      if (R % 2 == 0) {
        BestOff = std::min(BestOff, compileUs(*BP, TK, Bare));
        BestOn = std::min(BestOn, compileUs(*BP, TK, Instrumented));
      } else {
        BestOn = std::min(BestOn, compileUs(*BP, TK, Instrumented));
        BestOff = std::min(BestOff, compileUs(*BP, TK, Bare));
      }
    }
    ObsOffUs += BestOff;
    ObsOnUs += BestOn;
  }
  double ObsOverhead =
      ObsOffUs > 0 ? static_cast<double>(ObsOnUs) / ObsOffUs : 0.0;
  int64_t FnP50 = 0, FnP90 = 0, FnP99 = 0;
  obs::Histogram FnHist = ObsSink.histograms().get("fn.compile_us");
  if (FnHist.count() > 0) {
    FnP50 = FnHist.quantile(0.50);
    FnP90 = FnHist.quantile(0.90);
    FnP99 = FnHist.quantile(0.99);
  }
  std::printf("\ntelemetry overhead: bare sweep %lld us, histogram+journal "
              "sweep %lld us (%.3fx, %zu journal records over %d reps, "
              "fn.compile_us p50/p90/p99 = %lld/%lld/%lld us)\n",
              static_cast<long long>(ObsOffUs),
              static_cast<long long>(ObsOnUs), ObsOverhead,
              ObsJournal.size() / static_cast<size_t>(ObsReps), ObsReps,
              static_cast<long long>(FnP50), static_cast<long long>(FnP90),
              static_cast<long long>(FnP99));
  if (ObsOverhead > 1.02)
    std::fprintf(stderr, "warning: telemetry recording overhead %.3fx "
                         "exceeds the 2%% budget\n",
                 ObsOverhead);

  // The ratios and their inputs, one per line in BENCH_compile.json and on
  // one line in the history record.
  std::string Totals = format(
      "\"end_to_end_us\": %lld,\n  \"jumps_total_baseline_us\": %lld,\n  "
      "\"jumps_total_optimized_us\": %lld,\n  \"reference_speedup\": %.3f,\n  "
      "\"obs_off_total_us\": %lld,\n  \"obs_on_total_us\": %lld,\n  "
      "\"obs_overhead\": %.3f,\n  \"fn_compile_p50_us\": %lld,\n  "
      "\"fn_compile_p90_us\": %lld,\n  \"fn_compile_p99_us\": %lld",
      static_cast<long long>(EndToEndUs),
      static_cast<long long>(ReferenceTotalUs),
      static_cast<long long>(DefaultTotalUs), Speedup,
      static_cast<long long>(ObsOffUs), static_cast<long long>(ObsOnUs),
      ObsOverhead, static_cast<long long>(FnP50),
      static_cast<long long>(FnP90), static_cast<long long>(FnP99));

  std::FILE *F = std::fopen(OutPath.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(F,
               "{\n  \"suite\": \"Table 3 programs, both targets\",\n"
               "  \"repetitions\": %d,\n  \"jobs\": 1,\n"
               "  \"baseline\": \"reference pipeline: rerun-everything "
               "fixpoint loop, every analysis recomputed per query\",\n"
               "  \"optimized\": \"default pipeline: change-driven pass "
               "scheduling, epoch-stamped analysis manager\",\n"
               "  %s,\n  \"programs\": [\n%s\n  ]\n}\n",
               Reps, Totals.c_str(), ProgramsJson.c_str());
  std::fclose(F);

  // One history line per run: the trail bench_report gates.
  for (size_t P; (P = Totals.find("\n  ")) != std::string::npos;)
    Totals.replace(P, 3, " ");
  const char *HistoryPath = "BENCH_history.jsonl";
  if (std::FILE *H = std::fopen(HistoryPath, "a")) {
    std::fprintf(H,
                 "{\"date\": \"%s\", \"git_sha\": \"%s\", \"jobs\": 1, "
                 "\"repetitions\": %d, %s}\n",
                 isoUtcNow().c_str(), gitSha().c_str(), Reps,
                 Totals.c_str());
    std::fclose(H);
    std::printf("appended run record to %s\n", HistoryPath);
  } else {
    std::fprintf(stderr, "warning: cannot append to %s\n", HistoryPath);
  }

  std::printf("\ntotal JUMPS compile: baseline %lld us, optimized %lld us, "
              "speedup %.2fx (end-to-end %lld us)\n",
              static_cast<long long>(ReferenceTotalUs),
              static_cast<long long>(DefaultTotalUs), Speedup,
              static_cast<long long>(EndToEndUs));
  std::printf("wrote %s\n", OutPath.c_str());
  if (!AllMonotone) {
    std::fprintf(stderr, "error: per-program regression check failed\n");
    return 1;
  }
  return Obs.finish() ? 0 : 1;
}
