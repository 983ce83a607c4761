//===- bench_e2e.cpp - The end-to-end benchmark of record ---------------------===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the benchmark of record and prints, as its last
/// stdout line, one JSON object: how many checked operations were attempted
/// and failed, and every metric with its unit and sample count.
/// bench/e2e/run.py builds this binary and drives it; bench/e2e/README.md
/// says why each workload exists and what each metric means.
///
///   bench_e2e --workload=W --seed=S --seconds=T [--traced]
///             [--expected=DIR] [--work-dir=DIR] [--trace-out=FILE]
///
/// Every workload is a closed loop (callers are build tools that wait for
/// each reply):
///   suite-oneshot  one thread compiles the 14 Table-3 programs for both
///                  targets at JUMPS, in seed-shuffled whole sweeps;
///   verify-final   the same sweeps, each compile checked by verify::Oracle
///                  at Granularity::Final;
///   server-cold    4 connections to an in-process CompileServer (Jobs=2,
///                  disk-backed PipelineCache); every request is new;
///   server-hot     the same server, prefilled with 60 distinct requests
///                  that the 4 connections then draw with Zipf(1) weights.
///
/// Set-up runs SetupReps times (setup_s is the median); the timed phase
/// uses the last one. A traced run (--traced) switches tracing on and off
/// every TraceSliceNs: in a traced slice each op records spans around its
/// calls into the public entry points, and comparing the two kinds of slice
/// gives the tracing overhead. The program itself is never instrumented.
///
//===----------------------------------------------------------------------===//

#include "Suite.h"

#include "cache/CompileCache.h"
#include "cfg/FunctionPrinter.h"
#include "frontend/CodeGen.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "server/Socket.h"
#include "support/Rng.h"
#include "verify/Oracle.h"
#include "verify/RandomProgram.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace coderep;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants
//===----------------------------------------------------------------------===//

/// Set-up runs this many times per process; setup_s is their median.
constexpr int SetupReps = 3;

/// Client connections of the server workloads. The server gets two
/// compile workers so the clients and reader threads keep the other cores:
/// the run measures the server, not CPU oversubscription, and queue wait
/// stays visible.
constexpr int ServerClients = 4;
constexpr int ServerJobs = 2;

/// The server's function cache. server-cold writes far more entries than
/// either bound holds, so LRU and disk-budget eviction both run in steady
/// state.
constexpr size_t CacheEntries = 1024;
constexpr int64_t CacheDiskBudget = int64_t{16} << 20;

/// The random programs of the server workloads are a fixed pool,
/// verify::randomProgram(PoolBase + i). One program's compile takes from
/// 0.5 ms to 1.75 s (coefficient of variation 2.0-2.5), so the mean cost of
/// a run's requests drawn per seed would differ by about a tenth between
/// seeds. The seed orders the pool instead.
constexpr uint64_t PoolBase = 1000000;
constexpr int ColdPool = 64;
constexpr int HotRandom = 32;

/// server-cold re-checks every this-many-th response after the timed phase.
constexpr int ColdCheckStride = 10;

/// A traced run traces the ops that start in even slices of this length.
constexpr int64_t TraceSliceNs = 500'000'000;

/// Timing metrics are computed per window, and the fastest decile of the
/// windows is reported. Other tenants of a shared machine slow it down for
/// seconds to minutes at a time, and they only ever slow a window down.
/// Over ten seeds on a 4-core VM, the window median spread 7-20% between
/// runs and the fastest decile 4-12%. A window is a sweep (one-shot
/// workloads) or a cycle (server-cold), each holding every input exactly
/// once, or a slice of this length (server-hot).
constexpr int64_t HotWindowNs = 500'000'000;
constexpr double FastDecile = 0.1;

//===----------------------------------------------------------------------===//
// Clock and seeds
//===----------------------------------------------------------------------===//

Clock::time_point Epoch;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

/// splitmix64 finalizer: decorrelates the small, adjacent seeds the
/// workloads derive their streams from.
uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t Z = A * 0x9e3779b97f4a7c15ULL + B + 0x632be59bd9b4e019ULL;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

enum class SpanKind : uint8_t {
  Op,          ///< one timed operation
  Replay,      ///< an untimed in-process replay after the timed phase
  Frontend,    ///< frontend::compileToRtl
  Legalize,    ///< Target::legalizeFunction for every function
  Optimize,    ///< opt::optimizeProgram
  StaticStats, ///< driver::staticStats
  Print,       ///< cfg::toString
  Encode,      ///< server::encodeRequest
  Roundtrip,   ///< one framed request/response over the socket
  Decode,      ///< server::decodeResponse
  Snapshot,    ///< Oracle::makeSession
  Check,       ///< the oracle session's endFunction
  CacheKey,    ///< PipelineCache::keyFor
  CacheLookup, ///< PipelineCache::lookup
  CacheStore,  ///< PipelineCache::store
};
constexpr int NumSpanKinds = 15;

const char *spanName(SpanKind K) {
  static const char *Names[NumSpanKinds] = {
      "op",       "replay",          "frontend",     "legalize",
      "optimize", "static_stats",    "print",        "encode",
      "roundtrip", "decode",         "verify.snapshot", "verify.check",
      "cache.key", "cache.lookup",   "cache.store"};
  return Names[static_cast<int>(K)];
}

struct Span {
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int64_t Op = 0;      ///< id shared by every span of one operation
  int32_t Parent = -1; ///< index of the enclosing span in the same log
  SpanKind Kind = SpanKind::Op;
};

/// One thread's spans. They stay in memory, reserved up front, and are
/// written out when the run ends; Enabled switches recording per op.
class SpanLog {
public:
  SpanLog() { Spans.reserve(1 << 16); }

  int open(SpanKind K) {
    Span S;
    S.StartNs = nowNs();
    S.Op = CurrentOp;
    S.Kind = K;
    S.Parent = Open.empty() ? -1 : Open.back();
    Spans.push_back(S);
    Open.push_back(static_cast<int32_t>(Spans.size() - 1));
    return Open.back();
  }

  void close(int Idx) {
    Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
    Open.pop_back();
  }

  bool Enabled = false;
  int64_t CurrentOp = 0;
  std::vector<Span> Spans;

private:
  std::vector<int32_t> Open;
};

/// The calling thread's log; null on threads the benchmark does not own
/// (the server's readers and workers).
thread_local SpanLog *ThreadLog = nullptr;

class ScopedSpan {
public:
  explicit ScopedSpan(SpanKind K)
      : Log(ThreadLog && ThreadLog->Enabled ? ThreadLog : nullptr) {
    if (Log)
      Idx = Log->open(K);
  }
  ~ScopedSpan() {
    if (Log)
      Log->close(Idx);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  int Idx = -1;
};

/// True when an op starting \p SincePhaseNs into a traced run's timed
/// phase is traced.
bool tracedSlice(int64_t SincePhaseNs) {
  return (SincePhaseNs / TraceSliceNs) % 2 == 0;
}

//===----------------------------------------------------------------------===//
// Run state
//===----------------------------------------------------------------------===//

/// Checked-operation bookkeeping shared by every thread of the run.
class Tally {
public:
  /// Counts one checked operation; on failure keeps the first few reasons.
  bool check(bool Ok, const std::string &What, const char *Why) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok) {
      Failed.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(Mu);
      if (Errors.size() < 8)
        Errors.push_back(What + ": " + Why);
    }
    return Ok;
  }

  std::atomic<int64_t> Attempted{0};
  std::atomic<int64_t> Failed{0};
  std::mutex Mu;
  std::vector<std::string> Errors;
};

/// Layer counters of the traced ops and replays, all on the main thread.
struct LayerTotals {
  opt::PipelineStats Pipe;
  int64_t Ops = 0; ///< compiles whose pipeline stats are in Pipe
  int64_t SourceBytes = 0;
  int64_t ArenaPeakRefs = 0;
  int64_t ArenaLiveInsns = 0;
  verify::OracleCounters Verify;
  int64_t VerifiedOps = 0;
};

/// One timed op: its latency and the measurement window it belongs to.
struct OpSample {
  int64_t Window = 0;
  int64_t LatencyNs = 0;
};

/// What the clients (or the one-shot loop) measured in the timed phase.
struct OpSamples {
  std::vector<OpSample> Ops;
  int64_t TracedNs = 0, TracedOps = 0;
  int64_t UntracedNs = 0, UntracedOps = 0;
  /// Server-side split of the traced requests (from CompileResponse).
  std::vector<int64_t> QueueNs, CompileNs, TransportNs;

  void add(int64_t Window, int64_t Ns, bool Traced) {
    Ops.push_back({Window, Ns});
    (Traced ? TracedNs : UntracedNs) += Ns;
    ++(Traced ? TracedOps : UntracedOps);
  }

  void merge(const OpSamples &O) {
    Ops.insert(Ops.end(), O.Ops.begin(), O.Ops.end());
    TracedNs += O.TracedNs;
    TracedOps += O.TracedOps;
    UntracedNs += O.UntracedNs;
    UntracedOps += O.UntracedOps;
    QueueNs.insert(QueueNs.end(), O.QueueNs.begin(), O.QueueNs.end());
    CompileNs.insert(CompileNs.end(), O.CompileNs.begin(), O.CompileNs.end());
    TransportNs.insert(TransportNs.end(), O.TransportNs.begin(),
                       O.TransportNs.end());
  }
};

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Traced = false;
  std::string ExpectedDir = "bench/e2e/expected";
  std::string WorkDir = "build-e2e/run";
  std::string TraceOut;
};

struct Run {
  Config Cfg;
  Tally Checks;
  /// Log 0 belongs to the main thread, 1..ServerClients to the clients.
  std::vector<std::unique_ptr<SpanLog>> Logs;
  LayerTotals Layers;
  int64_t NextOp = 0;
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream S;
  S << In.rdbuf();
  Out = S.str();
  return true;
}

//===----------------------------------------------------------------------===//
// Forwarding wrappers that time the layers behind two pipeline interfaces
//===----------------------------------------------------------------------===//

/// Forwards to the oracle and times its two costs at Granularity::Final:
/// the pre-optimization snapshot (makeSession) and the differential check
/// at the end of the function (endFunction).
class TimedVerifier final : public opt::FunctionVerifier {
public:
  explicit TimedVerifier(opt::FunctionVerifier &Inner) : Inner(Inner) {}

  void beginProgram(const cfg::Program &P) override { Inner.beginProgram(P); }

  std::unique_ptr<Session> makeSession(const cfg::Function &F) override {
    std::unique_ptr<Session> S;
    {
      ScopedSpan Span(SpanKind::Snapshot);
      S = Inner.makeSession(F);
    }
    if (!S)
      return nullptr;
    return std::make_unique<TimedSession>(std::move(S));
  }

  bool functionVerifiedClean(const std::string &Name) const override {
    return Inner.functionVerifiedClean(Name);
  }

  void publishMetrics(obs::MetricsRegistry &M) const override {
    Inner.publishMetrics(M);
  }

private:
  class TimedSession final : public Session {
  public:
    explicit TimedSession(std::unique_ptr<Session> Inner)
        : Inner(std::move(Inner)) {}
    void afterPass(opt::Phase Ph, int Round, const cfg::Function &F,
                   bool Changed) override {
      Inner->afterPass(Ph, Round, F, Changed);
    }
    void endRound(int Round, const cfg::Function &F) override {
      Inner->endRound(Round, F);
    }
    void endFunction(const cfg::Function &F) override {
      ScopedSpan Span(SpanKind::Check);
      Inner->endFunction(F);
    }

  private:
    std::unique_ptr<Session> Inner;
  };

  opt::FunctionVerifier &Inner;
};

/// Forwards to the server's PipelineCache and times keyFor/lookup/store.
/// A non-empty Salt is appended to every key, which turns the replay of a
/// request the server already stored into a miss that stores anew.
class TimedCache final : public opt::FunctionOptimizationCache {
public:
  TimedCache(cache::PipelineCache &Inner, std::string Salt)
      : Inner(Inner), Salt(std::move(Salt)) {}

  std::string keyFor(const cfg::Function &F, const target::Target &T,
                     const opt::PipelineOptions &Options) const override {
    ScopedSpan Span(SpanKind::CacheKey);
    return Inner.keyFor(F, T, Options) + Salt;
  }
  bool lookup(const std::string &Key, cfg::Function &F,
              opt::PipelineStats *Stats) override {
    ScopedSpan Span(SpanKind::CacheLookup);
    return Inner.lookup(Key, F, Stats);
  }
  void store(const std::string &Key, const cfg::Function &F,
             const opt::PipelineStats &Delta) override {
    ScopedSpan Span(SpanKind::CacheStore);
    Inner.store(Key, F, Delta);
  }
  void noteVerified(const std::string &Key) override {
    Inner.noteVerified(Key);
  }
  bool wasVerified(const std::string &Key) const override {
    return Inner.wasVerified(Key);
  }

private:
  cache::PipelineCache &Inner;
  std::string Salt;
};

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// One compile request and the bytes every correct compile of it emits.
struct Job {
  std::string Name;
  std::string Source;
  target::TargetKind Target = target::TargetKind::Sparc;
  std::string Reference; ///< emitted RTL text of the reference compile
};

/// What a one-shot build tool does per source: driver::compile at JUMPS,
/// then emit the RTL text. With \p Layers (the op is traced) the same
/// public entry points are called one by one, in driver::compile's order,
/// each under its own span; the caller compares the emitted bytes with
/// the reference either way.
bool compileOnce(const std::string &Source, target::TargetKind TK,
                 const opt::PipelineOptions &Opts, LayerTotals *Layers,
                 std::string &Rtl, std::string &Err) {
  if (!Layers) {
    driver::Compilation C =
        driver::compile(Source, TK, opt::OptLevel::Jumps, &Opts);
    if (!C.ok()) {
      Err = C.Error;
      return false;
    }
    Rtl = cfg::toString(*C.Prog);
    return true;
  }

  cfg::Program Prog;
  {
    ScopedSpan S(SpanKind::Frontend);
    if (!frontend::compileToRtl(Source, Prog, Err))
      return false;
  }
  std::unique_ptr<target::Target> T;
  {
    ScopedSpan S(SpanKind::Legalize);
    T = target::createTarget(TK);
    for (auto &F : Prog.Functions) {
      T->legalizeFunction(*F);
      F->verify();
    }
  }
  opt::PipelineOptions Jumps = Opts;
  Jumps.Level = opt::OptLevel::Jumps;
  opt::PipelineStats Stats;
  {
    ScopedSpan S(SpanKind::Optimize);
    opt::optimizeProgram(Prog, *T, Jumps, &Stats);
  }
  {
    ScopedSpan S(SpanKind::StaticStats);
    (void)driver::staticStats(Prog);
  }
  {
    ScopedSpan S(SpanKind::Print);
    Rtl = cfg::toString(Prog);
  }
  Layers->Pipe += Stats;
  ++Layers->Ops;
  Layers->SourceBytes += static_cast<int64_t>(Source.size());
  for (const auto &F : Prog.Functions) {
    Layers->ArenaPeakRefs += F->arena().peakRefs();
    Layers->ArenaLiveInsns += F->arena().liveInsns();
  }
  return true;
}

/// One request as a build tool issues it: encode, one framed round trip
/// over the client's connection, decode. \p RoundtripNs receives the time
/// on the wire plus the server's whole handling.
bool requestOnce(int Conn, const server::CompileRequest &Req,
                 server::CompileResponse &Resp, int64_t &RoundtripNs,
                 std::string &Err) {
  std::string Payload;
  {
    ScopedSpan S(SpanKind::Encode);
    Payload = server::encodeRequest(Req);
  }
  {
    ScopedSpan S(SpanKind::Roundtrip);
    const int64_t T0 = nowNs();
    bool Ok = server::sendFrame(Conn, Payload) &&
              server::recvFrame(Conn, Payload);
    RoundtripNs = nowNs() - T0;
    if (!Ok) {
      Err = "transport error";
      return false;
    }
  }
  ScopedSpan S(SpanKind::Decode);
  return server::decodeResponse(Payload, Resp, Err);
}

/// Appends "_c<Cycle>" to every f<k> function of a verify::randomProgram
/// source and declares an unused local holding \p Cycle at the top of main
/// (whose RTL names callees by id, not by name). The compile does the work
/// of the untagged program plus one dead store, but every function's RTL
/// text, and with it its function-cache key, is new.
std::string tagProgram(const std::string &Src, int64_t Cycle) {
  const std::string Tag = "_c" + std::to_string(Cycle);
  std::string Out;
  Out.reserve(Src.size() + 256);
  size_t I = 0;
  while (I < Src.size()) {
    unsigned char C = static_cast<unsigned char>(Src[I]);
    if (!std::isalpha(C) && C != '_') {
      Out += Src[I++];
      continue;
    }
    size_t J = I;
    while (J < Src.size() &&
           (std::isalnum(static_cast<unsigned char>(Src[J])) || Src[J] == '_'))
      ++J;
    std::string_view Id(Src.data() + I, J - I);
    Out.append(Id);
    bool IsFn = Id.size() > 1 && Id[0] == 'f' &&
                Id.find_first_not_of("0123456789", 1) == std::string_view::npos;
    if (IsFn && J < Src.size() && Src[J] == '(')
      Out += Tag;
    I = J;
  }
  const std::string_view Main = "int main() {";
  size_t M = Out.find(Main);
  if (M != std::string::npos)
    Out.insert(M + Main.size(),
               "\n  int cold_tag = " + std::to_string(Cycle) + ";");
  return Out;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

/// Code quality of the Table-3 suite and the interpreter's speed, from the
/// reference runs every set-up makes.
struct SuiteQuality {
  int64_t StaticRtls = 0;
  int64_t DynInsns = 0;
  int64_t DynUncondJumps = 0;
  int64_t EaseNs = 0;
  int64_t EaseRuns = 0;
};

/// An in-process compile server with its function cache and the client
/// connections of a server workload, all under one work directory, which
/// the destructor removes after stopping the server.
struct ServerRig {
  ServerRig() = default;
  ServerRig(const ServerRig &) = delete;
  ServerRig &operator=(const ServerRig &) = delete;
  ~ServerRig() {
    Conns.clear();
    if (Server) {
      Server->requestStop();
      Server->wait();
    }
    Server.reset();
    Cache.reset();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }

  fs::path Dir;
  std::unique_ptr<cache::PipelineCache> Cache;
  std::unique_ptr<server::CompileServer> Server;
  std::vector<server::Fd> Conns;
};

struct SetUp {
  std::vector<Job> Suite; ///< the 28 (program, target) pairs
  SuiteQuality Quality;
  std::vector<Job> Pool; ///< random programs of the server workloads
  std::vector<Job> Hot;  ///< server-hot's distinct requests, in rank order
  std::unique_ptr<ServerRig> Rig;
};

/// Compiles the Table-3 suite for both targets at JUMPS, runs each program
/// on its input, and checks the output against <ExpectedDir>/<prog>.out.
void buildSuite(Run &R, SetUp &S) {
  for (const bench::BenchProgram &BP : bench::suite()) {
    std::string Expected;
    bool HaveExpected =
        readFile(R.Cfg.ExpectedDir + "/" + BP.Name + ".out", Expected);
    for (target::TargetKind TK :
         {target::TargetKind::Sparc, target::TargetKind::M68}) {
      Job J;
      J.Name = BP.Name + "/" + server::targetWireName(TK);
      J.Source = BP.Source;
      J.Target = TK;
      driver::Compilation C =
          driver::compile(BP.Source, TK, opt::OptLevel::Jumps);
      if (R.Checks.check(C.ok(), J.Name, "compile error")) {
        J.Reference = cfg::toString(*C.Prog);
        ease::RunOptions RO;
        RO.Input = BP.Input;
        const int64_t T0 = nowNs();
        ease::RunResult Out = ease::run(*C.Prog, RO);
        S.Quality.EaseNs += nowNs() - T0;
        ++S.Quality.EaseRuns;
        R.Checks.check(HaveExpected && Out.ok() && Out.Output == Expected,
                       J.Name, "program output differs from expected/");
        S.Quality.StaticRtls += C.Static.Instructions;
        S.Quality.DynInsns += static_cast<int64_t>(Out.Stats.Executed);
        S.Quality.DynUncondJumps +=
            static_cast<int64_t>(Out.Stats.UncondJumps);
      }
      S.Suite.push_back(std::move(J));
    }
  }
}

/// The random-program pool: verify::randomProgram(PoolBase + i) with
/// alternating targets. \p WithReference compiles each one.
void buildPool(Run &R, SetUp &S, int N, bool WithReference) {
  for (int I = 0; I < N; ++I) {
    Job J;
    J.Target = I % 2 ? target::TargetKind::M68 : target::TargetKind::Sparc;
    J.Name = "random-" + std::to_string(I) + "/" +
             server::targetWireName(J.Target);
    J.Source = verify::randomProgram(PoolBase + static_cast<uint64_t>(I));
    if (WithReference) {
      driver::Compilation C =
          driver::compile(J.Source, J.Target, opt::OptLevel::Jumps);
      if (R.Checks.check(C.ok(), J.Name, "compile error"))
        J.Reference = cfg::toString(*C.Prog);
    }
    S.Pool.push_back(std::move(J));
  }
}

server::CompileRequest requestFor(const Job &J) {
  server::CompileRequest Req;
  Req.Name = J.Name;
  Req.Source = J.Source;
  Req.Target = J.Target;
  Req.Level = opt::OptLevel::Jumps;
  return Req;
}

std::unique_ptr<ServerRig> startServer(Run &R, int Rep) {
  auto Rig = std::make_unique<ServerRig>();
  Rig->Dir = fs::path(R.Cfg.WorkDir) /
             (R.Cfg.Workload + "-" + std::to_string(::getpid()) + "-" +
              std::to_string(Rep));
  std::error_code Ec;
  fs::remove_all(Rig->Dir, Ec);
  fs::create_directories(Rig->Dir, Ec);
  Rig->Cache = std::make_unique<cache::PipelineCache>(
      (Rig->Dir / "fncache").string(), CacheEntries, CacheDiskBudget);
  server::ServerOptions SO;
  SO.SocketPath = (Rig->Dir / "s.sock").string();
  SO.Jobs = ServerJobs;
  SO.Cache = Rig->Cache.get();
  const std::string Socket = SO.SocketPath;
  Rig->Server = std::make_unique<server::CompileServer>(std::move(SO));
  std::string Err;
  if (!R.Checks.check(Rig->Server->start(Err), "server start", Err.c_str()))
    return nullptr;
  for (int C = 0; C < ServerClients; ++C) {
    server::Fd Conn = server::connectUnix(Socket, Err);
    if (!R.Checks.check(Conn.valid(), "client connect", Err.c_str()))
      return nullptr;
    Rig->Conns.push_back(std::move(Conn));
  }
  return Rig;
}

/// Everything before the timed phase: the suite references, then the
/// workload's own preparation.
std::unique_ptr<SetUp> prepare(Run &R, int Rep) {
  auto S = std::make_unique<SetUp>();
  buildSuite(R, *S);
  const std::string &W = R.Cfg.Workload;
  if (W == "suite-oneshot" || W == "verify-final") {
    // One untimed sweep so the timed phase starts warm. verify-final's
    // oracle and interpreter are already warm from the reference runs.
    for (const Job &J : S->Suite) {
      std::string Rtl, Err;
      bool Ok = compileOnce(J.Source, J.Target, {}, nullptr, Rtl, Err);
      R.Checks.check(Ok && Rtl == J.Reference, J.Name, "warm-up mismatch");
    }
    return S;
  }

  const bool Hot = W == "server-hot";
  buildPool(R, *S, Hot ? HotRandom : ColdPool, Hot);
  S->Rig = startServer(R, Rep);
  if (!S->Rig || !Hot)
    return S;

  // Fixed popularity ranking: suite pairs and random programs interleaved.
  // The Zipf head takes a fifth of the traffic, so under shuffled rankings
  // the weighted mean hit-path cost had a 19% standard deviation.
  for (size_t I = 0; I < std::max(S->Suite.size(), S->Pool.size()); ++I) {
    if (I < S->Suite.size())
      S->Hot.push_back(S->Suite[I]);
    if (I < S->Pool.size())
      S->Hot.push_back(S->Pool[I]);
  }
  // Prefill: every distinct request once, byte-compared with its one-shot
  // reference.
  const int Conn = S->Rig->Conns[0].get();
  for (const Job &J : S->Hot) {
    server::CompileResponse Resp;
    int64_t RoundtripNs = 0;
    std::string Err;
    bool Ok = requestOnce(Conn, requestFor(J), Resp, RoundtripNs, Err);
    R.Checks.check(Ok && Resp.Ok && Resp.Rtl == J.Reference, J.Name,
                   "prefill response differs from one-shot compile");
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Timed phases
//===----------------------------------------------------------------------===//

struct TimedResult {
  OpSamples Samples;
  /// server workloads: cache counters over the timed phase.
  int64_t Hits = 0, Misses = 0, DiskHits = 0, Evictions = 0, DiskWrites = 0,
          DiskEvictions = 0, DiskBytes = 0;
};

/// suite-oneshot and verify-final: whole seed-shuffled sweeps until the
/// run's seconds are up, so every run compiles each pair equally often.
TimedResult runOneShot(Run &R, SetUp &S, bool Verify) {
  TimedResult Out;
  SpanLog &Log = *R.Logs[0];
  std::vector<size_t> Order(S.Suite.size());
  std::iota(Order.begin(), Order.end(), 0);
  const int64_t Start = nowNs();
  const int64_t End = Start + int64_t{R.Cfg.Seconds} * 1'000'000'000;
  for (uint64_t Sweep = 0; Sweep == 0 || nowNs() < End; ++Sweep) {
    Rng Shuffle(mix(R.Cfg.Seed, Sweep));
    shuffle(Order, Shuffle);
    for (size_t I : Order) {
      const Job &J = S.Suite[I];
      const int64_t T0 = nowNs();
      const bool Traced = R.Cfg.Traced && tracedSlice(T0 - Start);
      Log.Enabled = Traced;
      Log.CurrentOp = R.NextOp++;
      LayerTotals *Layers = Traced ? &R.Layers : nullptr;
      std::string Rtl, Err;
      bool Ok;
      int64_t Mismatches = 0;
      {
        ScopedSpan OpSpan(SpanKind::Op);
        if (Verify) {
          // The oracle keeps its default input seed, as --verify=final
          // does: sort's check costs 8 to 51 ms depending on that seed
          // and sits at the suite's median, so a per-run seed would move
          // latency_ms_p50 by a fifth between runs.
          verify::OracleOptions OO;
          OO.Gran = verify::Granularity::Final;
          verify::Oracle Oracle(OO);
          TimedVerifier Timed(Oracle);
          opt::PipelineOptions Opts;
          Opts.Verifier = Traced ? static_cast<opt::FunctionVerifier *>(&Timed)
                                 : &Oracle;
          Ok = compileOnce(J.Source, J.Target, Opts, Layers, Rtl, Err);
          verify::OracleCounters VC = Oracle.counters();
          Mismatches = VC.Mismatches;
          if (Traced) {
            R.Layers.Verify.Checks += VC.Checks;
            R.Layers.Verify.InputsRun += VC.InputsRun;
            R.Layers.Verify.Inconclusive += VC.Inconclusive;
            ++R.Layers.VerifiedOps;
          }
        } else {
          Ok = compileOnce(J.Source, J.Target, {}, Layers, Rtl, Err);
        }
      }
      Out.Samples.add(static_cast<int64_t>(Sweep), nowNs() - T0, Traced);
      Log.Enabled = false;
      R.Checks.check(Ok && Rtl == J.Reference && Mismatches == 0, J.Name,
                     !Ok ? "compile error"
                     : Mismatches ? "oracle mismatch"
                                  : "emitted RTL differs from reference");
    }
  }
  return Out;
}

/// Samples ranks with probability proportional to 1/rank.
class Zipf {
public:
  explicit Zipf(size_t N) {
    double Sum = 0;
    for (size_t I = 0; I < N; ++I)
      Cdf.push_back(Sum += 1.0 / static_cast<double>(I + 1));
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t draw(Rng &R) const {
    double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
    size_t I = static_cast<size_t>(
        std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    return std::min(I, Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

/// A cold response kept for the post-phase byte comparison.
struct KeptResponse {
  server::CompileRequest Req;
  std::string Rtl;
};

/// server-cold and server-hot: ServerClients closed-loop clients.
/// server-cold issues the pool in seed-shuffled cycles, each request
/// tagged new, and finishes the cycle in progress when time is up;
/// server-hot draws Zipf(1) over the prefilled requests until time is up.
TimedResult runServer(Run &R, SetUp &S, std::vector<KeptResponse> &Kept) {
  TimedResult Out;
  const bool Hot = R.Cfg.Workload == "server-hot";
  cache::PipelineCache &Cache = *S.Rig->Cache;
  const int64_t Hits0 = Cache.hits(), Misses0 = Cache.misses(),
                DiskHits0 = Cache.diskHits(), Evictions0 = Cache.evictions(),
                DiskWrites0 = Cache.diskWrites(),
                DiskEvictions0 = Cache.diskEvictions();

  const Zipf Popularity(S.Hot.size());
  std::atomic<int64_t> Next{0};
  std::atomic<int64_t> Limit{std::numeric_limits<int64_t>::max()};
  std::vector<OpSamples> Samples(ServerClients);
  std::vector<std::vector<KeptResponse>> KeptBy(ServerClients);
  std::mutex CycleMu;
  std::vector<std::vector<size_t>> CycleOrder; // guarded by CycleMu

  const int64_t Start = nowNs();
  const int64_t End = Start + int64_t{R.Cfg.Seconds} * 1'000'000'000;
  auto client = [&](int C) {
    SpanLog &Log = *R.Logs[static_cast<size_t>(1 + C)];
    ThreadLog = &Log;
    OpSamples &Mine = Samples[static_cast<size_t>(C)];
    const int Conn = S.Rig->Conns[static_cast<size_t>(C)].get();
    Rng Draw(mix(R.Cfg.Seed, 1000 + static_cast<uint64_t>(C)));
    for (int64_t Seq = 0;; ++Seq) {
      server::CompileRequest Req;
      const Job *Ref = nullptr;
      int64_t Index = 0;
      if (Hot) {
        if (nowNs() >= End)
          break;
        Ref = &S.Hot[Popularity.draw(Draw)];
        Req = requestFor(*Ref);
      } else {
        Index = Next.fetch_add(1);
        if (Index < Limit.load() && nowNs() >= End) {
          // Time is up: finish the cycle in progress, start no other.
          int64_t CycleEnd = (Index / ColdPool + 1) * ColdPool;
          int64_t Cur = Limit.load();
          while (CycleEnd < Cur && !Limit.compare_exchange_weak(Cur, CycleEnd))
            ;
        }
        if (Index >= Limit.load())
          break;
        const int64_t Cycle = Index / ColdPool;
        size_t Slot;
        {
          std::lock_guard<std::mutex> Lock(CycleMu);
          while (CycleOrder.size() <= static_cast<size_t>(Cycle)) {
            std::vector<size_t> Order(S.Pool.size());
            std::iota(Order.begin(), Order.end(), 0);
            Rng Shuffle(mix(R.Cfg.Seed, CycleOrder.size()));
            shuffle(Order, Shuffle);
            CycleOrder.push_back(std::move(Order));
          }
          Slot = CycleOrder[static_cast<size_t>(Cycle)]
                           [static_cast<size_t>(Index % ColdPool)];
        }
        Req = requestFor(S.Pool[Slot]);
        Req.Name += "/c" + std::to_string(Cycle);
        Req.Source = tagProgram(Req.Source, Cycle);
      }

      const int64_t T0 = nowNs();
      const bool Traced = R.Cfg.Traced && tracedSlice(T0 - Start);
      Log.Enabled = Traced;
      Log.CurrentOp = int64_t{C + 1} << 40 | Seq;
      server::CompileResponse Resp;
      int64_t RoundtripNs = 0;
      std::string Err;
      bool Ok;
      {
        ScopedSpan OpSpan(SpanKind::Op);
        Ok = requestOnce(Conn, Req, Resp, RoundtripNs, Err);
      }
      Mine.add(Hot ? (T0 - Start) / HotWindowNs : Index / ColdPool,
               nowNs() - T0, Traced);
      Log.Enabled = false;
      if (Traced && Ok) {
        const int64_t QueueNs = Resp.QueueUs * 1000;
        const int64_t CompileNs = Resp.CompileUs * 1000;
        Mine.QueueNs.push_back(QueueNs);
        Mine.CompileNs.push_back(CompileNs);
        Mine.TransportNs.push_back(RoundtripNs - QueueNs - CompileNs);
      }
      const bool Good = Ok && Resp.Ok && (!Ref || Resp.Rtl == Ref->Reference);
      R.Checks.check(Good, Req.Name,
                     !Ok        ? "transport or protocol error"
                     : !Resp.Ok ? "server returned an error"
                                : "response differs from one-shot compile");
      if (!Ok)
        break; // the connection is gone
      if (!Hot && Index % ColdCheckStride == 0 && Resp.Ok)
        KeptBy[static_cast<size_t>(C)].push_back({std::move(Req),
                                                  std::move(Resp.Rtl)});
    }
    ThreadLog = nullptr;
  };

  std::vector<std::thread> Clients;
  for (int C = 0; C < ServerClients; ++C)
    Clients.emplace_back(client, C);
  for (std::thread &T : Clients)
    T.join();

  for (const OpSamples &O : Samples)
    Out.Samples.merge(O);
  for (auto &V : KeptBy)
    for (KeptResponse &K : V)
      Kept.push_back(std::move(K));
  Out.Hits = Cache.hits() - Hits0;
  Out.Misses = Cache.misses() - Misses0;
  Out.DiskHits = Cache.diskHits() - DiskHits0;
  Out.Evictions = Cache.evictions() - Evictions0;
  Out.DiskWrites = Cache.diskWrites() - DiskWrites0;
  Out.DiskEvictions = Cache.diskEvictions() - DiskEvictions0;
  Out.DiskBytes = std::max<int64_t>(0, Cache.diskBytes());
  return Out;
}

/// After a server workload's timed phase, on the main thread:
///  - server-cold: every kept response is compared with an in-process
///    compile of the same request through the server's cache under a
///    salted key, so the replay misses and runs the whole pipeline;
///  - server-hot (traced runs): every distinct request is replayed
///    through the cache, which hits, as the server served it.
/// Traced runs record replay spans, which give the server workloads'
/// layer split inside the compile.
void replayServer(Run &R, SetUp &S, const std::vector<KeptResponse> &Kept) {
  SpanLog &Log = *R.Logs[0];
  auto replay = [&](const server::CompileRequest &Req,
                    const std::string &Expected, const char *Salt) {
    TimedCache Timed(*S.Rig->Cache, Salt);
    opt::PipelineOptions Opts = Req.pipelineOptions(opt::PipelineOptions{});
    Opts.FunctionCache = &Timed;
    Log.Enabled = R.Cfg.Traced;
    Log.CurrentOp = R.NextOp++;
    std::string Rtl, Err;
    bool Ok;
    {
      ScopedSpan Span(SpanKind::Replay);
      Ok = compileOnce(Req.Source, Req.Target, Opts,
                       R.Cfg.Traced ? &R.Layers : nullptr, Rtl, Err);
    }
    Log.Enabled = false;
    R.Checks.check(Ok && Rtl == Expected, Req.Name,
                   "in-process compile differs from server response");
  };
  if (R.Cfg.Workload == "server-cold") {
    for (const KeptResponse &K : Kept)
      replay(K.Req, K.Rtl, "\nreplay");
  } else if (R.Cfg.Traced) {
    for (const Job &J : S.Hot)
      replay(requestFor(J), J.Reference, "");
  }
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  int64_t N = 0;
};

/// Linear-interpolated quantile \p Q of \p V (sorted in place).
template <typename T> double quantile(std::vector<T> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return static_cast<double>(V[Lo]) * (1 - Frac) +
         static_cast<double>(V[Hi]) * Frac;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Each window's throughput, p50 and p90 latency, taken at the fastest
/// decile of the windows. A closed loop of \p Clients callers completes
/// Clients / (mean latency) ops per second, which holds in every window
/// whatever its length.
struct WindowedTiming {
  double OpsPerS = 0, P50Ns = 0, P90Ns = 0;
};

WindowedTiming windowed(std::vector<OpSample> Ops, int Clients) {
  std::stable_sort(Ops.begin(), Ops.end(),
                   [](const OpSample &A, const OpSample &B) {
                     return A.Window < B.Window;
                   });
  std::vector<double> Rate, P50, P90;
  for (size_t I = 0; I < Ops.size();) {
    std::vector<int64_t> Lat;
    int64_t Sum = 0;
    size_t J = I;
    for (; J < Ops.size() && Ops[J].Window == Ops[I].Window; ++J) {
      Lat.push_back(Ops[J].LatencyNs);
      Sum += Ops[J].LatencyNs;
    }
    Rate.push_back(ratio(1e9 * Clients * static_cast<double>(Lat.size()),
                         static_cast<double>(Sum)));
    P50.push_back(quantile(Lat, 0.50));
    P90.push_back(quantile(Lat, 0.90));
    I = J;
  }
  return {quantile(Rate, 1 - FastDecile), quantile(P50, FastDecile),
          quantile(P90, FastDecile)};
}

/// Per-kind span totals over every log.
struct SpanTotals {
  int64_t Ns[NumSpanKinds] = {};
  int64_t Count[NumSpanKinds] = {};
  std::vector<int64_t> CheckNs;
  int64_t OpNs = 0, OpChildNs = 0, Ops = 0;

  double meanUs(SpanKind K) const {
    int I = static_cast<int>(K);
    return ratio(static_cast<double>(Ns[I]) / 1e3,
                 static_cast<double>(Count[I]));
  }
};

SpanTotals sumSpans(const Run &R) {
  SpanTotals T;
  for (const auto &Log : R.Logs) {
    const std::vector<Span> &Spans = Log->Spans;
    for (const Span &S : Spans) {
      const int64_t Ns = S.EndNs - S.StartNs;
      T.Ns[static_cast<int>(S.Kind)] += Ns;
      ++T.Count[static_cast<int>(S.Kind)];
      if (S.Kind == SpanKind::Check)
        T.CheckNs.push_back(Ns);
      if (S.Kind == SpanKind::Op) {
        T.OpNs += Ns;
        ++T.Ops;
      } else if (S.Parent >= 0 &&
                 Spans[static_cast<size_t>(S.Parent)].Kind == SpanKind::Op) {
        T.OpChildNs += Ns;
      }
    }
  }
  return T;
}

std::string snakeCase(const char *Name) {
  std::string Out;
  for (const char *P = Name; *P; ++P)
    Out += std::isalnum(static_cast<unsigned char>(*P)) ? *P : '_';
  return Out;
}

void endToEndMetrics(std::vector<Metric> &M, std::vector<double> SetupS,
                     const TimedResult &T, int Clients,
                     const SuiteQuality &Q) {
  M.push_back({"setup_s", quantile(SetupS, 0.5), "s",
               static_cast<int64_t>(SetupS.size())});
  const int64_t Ops = static_cast<int64_t>(T.Samples.Ops.size());
  const WindowedTiming W = windowed(T.Samples.Ops, Clients);
  M.push_back({"throughput_ops_s", W.OpsPerS, "ops/s", Ops});
  M.push_back({"latency_ms_p50", W.P50Ns / 1e6, "ms", Ops});
  M.push_back({"latency_ms_p90", W.P90Ns / 1e6, "ms", Ops});
  rusage Usage{};
  ::getrusage(RUSAGE_SELF, &Usage);
  M.push_back({"peak_rss_mb", static_cast<double>(Usage.ru_maxrss) / 1024.0,
               "MiB", 1});
  const int64_t Pairs = static_cast<int64_t>(Q.EaseRuns);
  M.push_back({"static_rtls", static_cast<double>(Q.StaticRtls), "RTLs",
               Pairs});
  M.push_back({"dyn_insns", static_cast<double>(Q.DynInsns), "RTLs", Pairs});
  M.push_back({"dyn_uncond_jumps", static_cast<double>(Q.DynUncondJumps),
               "jumps", Pairs});
}

/// The phases the default JUMPS pipeline runs (the fused sweep stands in
/// for CSE, dead variables, branch chaining in the loop and constant
/// folding, whose own slots then stay empty).
constexpr opt::Phase ReportedPhases[] = {
    opt::Phase::BranchChaining,       opt::Phase::UnreachableElim,
    opt::Phase::BlockReorder,         opt::Phase::MergeFallthroughs,
    opt::Phase::Replication,          opt::Phase::InstructionSelection,
    opt::Phase::RegisterAssignment,   opt::Phase::CodeMotion,
    opt::Phase::StrengthReduction,    opt::Phase::RegisterAllocation,
    opt::Phase::DelaySlotFilling,     opt::Phase::FusedLocalSweep};

void layerMetrics(std::vector<Metric> &M, const Run &R, TimedResult &T,
                  const SuiteQuality &Q) {
  const SpanTotals S = sumSpans(R);
  const LayerTotals &L = R.Layers;
  const opt::PipelineStats &P = L.Pipe;
  const double Ops = static_cast<double>(L.Ops);
  auto perOp = [&](double V) { return ratio(V, Ops); };
  auto add = [&](const std::string &Name, double V, const char *Unit,
                 int64_t N) { M.push_back({Name, V, Unit, N}); };
  auto cnt = [&](SpanKind K) { return S.Count[static_cast<int>(K)]; };

  add("frontend.us_per_op", S.meanUs(SpanKind::Frontend), "us",
      cnt(SpanKind::Frontend));
  add("frontend.src_kb_per_s",
      ratio(static_cast<double>(L.SourceBytes) / 1024.0,
            static_cast<double>(S.Ns[static_cast<int>(SpanKind::Frontend)]) /
                1e9),
      "KiB/s", cnt(SpanKind::Frontend));
  add("target.legalize_us_per_op", S.meanUs(SpanKind::Legalize), "us",
      cnt(SpanKind::Legalize));

  const double Lookups =
      static_cast<double>(T.Hits + T.Misses + T.DiskHits);
  const double TimedOps = static_cast<double>(T.Samples.Ops.size());
  add("cache.key_us", S.meanUs(SpanKind::CacheKey), "us",
      cnt(SpanKind::CacheKey));
  add("cache.lookup_us", S.meanUs(SpanKind::CacheLookup), "us",
      cnt(SpanKind::CacheLookup));
  add("cache.store_us", S.meanUs(SpanKind::CacheStore), "us",
      cnt(SpanKind::CacheStore));
  add("cache.hit_ratio",
      ratio(static_cast<double>(T.Hits + T.DiskHits), Lookups), "ratio",
      static_cast<int64_t>(Lookups));
  add("cache.disk_hit_ratio", ratio(static_cast<double>(T.DiskHits), Lookups),
      "ratio", static_cast<int64_t>(Lookups));
  add("cache.evictions", ratio(static_cast<double>(T.Evictions), TimedOps),
      "count/op", T.Evictions);
  add("cache.disk_writes", ratio(static_cast<double>(T.DiskWrites), TimedOps),
      "count/op", T.DiskWrites);
  add("cache.disk_evictions",
      ratio(static_cast<double>(T.DiskEvictions), TimedOps), "count/op",
      T.DiskEvictions);
  add("cache.disk_mb", static_cast<double>(T.DiskBytes) / (1 << 20), "MiB", 1);

  add("opt.us_per_op", S.meanUs(SpanKind::Optimize), "us",
      cnt(SpanKind::Optimize));
  for (opt::Phase Ph : ReportedPhases)
    add("opt.phase_us." + snakeCase(opt::phaseName(Ph)),
        perOp(static_cast<double>(P.PhaseMicros[static_cast<int>(Ph)])), "us",
        L.Ops);
  add("opt.fixpoint_rounds", perOp(P.FixpointIterations), "count/op", L.Ops);
  add("opt.passes_run", perOp(static_cast<double>(P.FixpointPassesRun)),
      "count/op", L.Ops);
  add("opt.pass_skip_ratio",
      ratio(static_cast<double>(P.FixpointPassesSkipped),
            static_cast<double>(P.FixpointPassesRun +
                                P.FixpointPassesSkipped)),
      "ratio", L.Ops);

  const replicate::ReplicationStats &Rep = P.Replication;
  const int Examined = Rep.JumpsReplaced + Rep.RolledBackIrreducible +
                       Rep.SkippedLengthCap + Rep.SkippedGrowthBudget +
                       Rep.SkippedNoCandidate;
  add("replicate.jumps_replaced", perOp(Rep.JumpsReplaced), "count/op", L.Ops);
  add("replicate.apply_ratio", ratio(Rep.JumpsReplaced, Examined), "ratio",
      Examined);
  add("replicate.rolled_back", perOp(Rep.RolledBackIrreducible), "count/op",
      L.Ops);
  add("replicate.skipped_growth_budget", perOp(Rep.SkippedGrowthBudget),
      "count/op", L.Ops);
  add("replicate.sp_cache_hit_ratio",
      ratio(P.SpCacheHits, P.SpCacheHits + P.SpCacheMisses), "ratio",
      P.SpCacheHits + P.SpCacheMisses);

  const double AHits = static_cast<double>(P.Analysis.totalHits());
  const double ARecomp = static_cast<double>(P.Analysis.totalRecomputes());
  add("cfg.analysis_hit_ratio", ratio(AHits, AHits + ARecomp), "ratio",
      static_cast<int64_t>(AHits + ARecomp));
  add("cfg.analysis_recomputes", perOp(ARecomp), "count/op", L.Ops);

  add("rtl.arena_peak_refs", perOp(static_cast<double>(L.ArenaPeakRefs)),
      "count/op", L.Ops);
  add("rtl.arena_live_ratio",
      ratio(static_cast<double>(L.ArenaLiveInsns),
            static_cast<double>(L.ArenaPeakRefs)),
      "ratio", L.Ops);

  add("driver.print_us_per_op", S.meanUs(SpanKind::Print), "us",
      cnt(SpanKind::Print));
  add("driver.static_stats_us_per_op", S.meanUs(SpanKind::StaticStats), "us",
      cnt(SpanKind::StaticStats));

  OpSamples &O = T.Samples;
  const int64_t Srv = static_cast<int64_t>(O.QueueNs.size());
  add("server.queue_ms_p50", quantile(O.QueueNs, 0.50) / 1e6, "ms", Srv);
  add("server.queue_ms_p99", quantile(O.QueueNs, 0.99) / 1e6, "ms", Srv);
  add("server.compile_ms_p50", quantile(O.CompileNs, 0.50) / 1e6, "ms", Srv);
  add("server.compile_ms_p99", quantile(O.CompileNs, 0.99) / 1e6, "ms", Srv);
  add("server.transport_ms_p50", quantile(O.TransportNs, 0.50) / 1e6, "ms",
      Srv);
  add("server.transport_ms_p99", quantile(O.TransportNs, 0.99) / 1e6, "ms",
      Srv);
  add("server.encode_us", S.meanUs(SpanKind::Encode), "us",
      cnt(SpanKind::Encode));
  add("server.decode_us", S.meanUs(SpanKind::Decode), "us",
      cnt(SpanKind::Decode));

  std::vector<int64_t> CheckNs = S.CheckNs;
  const int64_t Checks = static_cast<int64_t>(CheckNs.size());
  add("verify.check_ms_p50", quantile(CheckNs, 0.50) / 1e6, "ms", Checks);
  add("verify.check_ms_p90", quantile(CheckNs, 0.90) / 1e6, "ms", Checks);
  add("verify.snapshot_us", S.meanUs(SpanKind::Snapshot), "us",
      cnt(SpanKind::Snapshot));
  add("verify.inputs_run",
      ratio(static_cast<double>(L.Verify.InputsRun),
            static_cast<double>(L.VerifiedOps)),
      "count/op", L.VerifiedOps);
  add("verify.inconclusive_ratio",
      ratio(static_cast<double>(L.Verify.Inconclusive),
            static_cast<double>(L.Verify.InputsRun)),
      "ratio", L.Verify.InputsRun);

  add("ease.mrtl_per_s",
      ratio(static_cast<double>(Q.DynInsns) / 1e6,
            static_cast<double>(Q.EaseNs) / 1e9),
      "MRTL/s", Q.EaseRuns);
  add("ease.us_per_run",
      ratio(static_cast<double>(Q.EaseNs) / 1e3,
            static_cast<double>(Q.EaseRuns)),
      "us", Q.EaseRuns);

  add("trace.residual_pct",
      100.0 * ratio(static_cast<double>(S.OpNs - S.OpChildNs),
                    static_cast<double>(S.OpNs)),
      "%", S.Ops);
  const double TracedMean = ratio(static_cast<double>(O.TracedNs),
                                  static_cast<double>(O.TracedOps));
  const double UntracedMean = ratio(static_cast<double>(O.UntracedNs),
                                    static_cast<double>(O.UntracedOps));
  add("trace.overhead_pct",
      UntracedMean > 0 ? 100.0 * (TracedMean / UntracedMean - 1) : 0, "%",
      O.TracedOps);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// One span per line: {"thread","id","parent","op","name","start_us","dur_us"}.
bool writeTrace(const Run &R, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t T = 0; T < R.Logs.size(); ++T) {
    const std::vector<Span> &Spans = R.Logs[T]->Spans;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"thread\": %zu, \"id\": %zu, \"parent\": %d, \"op\": "
                   "%lld, \"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": "
                   "%.3f}\n",
                   T, I, S.Parent, static_cast<long long>(S.Op),
                   spanName(S.Kind), static_cast<double>(S.StartNs) / 1e3,
                   static_cast<double>(S.EndNs - S.StartNs) / 1e3);
    }
  }
  return std::fclose(F) == 0;
}

void printResult(const Run &R, const std::vector<Metric> &M) {
  std::string Out = "{\"workload\": " + jsonString(R.Cfg.Workload) +
                    ", \"seed\": " + std::to_string(R.Cfg.Seed) +
                    ", \"seconds\": " + std::to_string(R.Cfg.Seconds) +
                    ", \"traced\": " + (R.Cfg.Traced ? "true" : "false") +
                    ", \"attempted\": " +
                    std::to_string(R.Checks.Attempted.load()) +
                    ", \"failed\": " + std::to_string(R.Checks.Failed.load()) +
                    ", \"errors\": [";
  for (size_t I = 0; I < R.Checks.Errors.size(); ++I)
    Out += (I ? ", " : "") + jsonString(R.Checks.Errors[I]);
  Out += "], \"metrics\": {";
  for (size_t I = 0; I < M.size(); ++I)
    Out += (I ? ", " : "") + jsonString(M[I].Name) +
           ": {\"value\": " + jsonNumber(M[I].Value) +
           ", \"unit\": " + jsonString(M[I].Unit) +
           ", \"n\": " + std::to_string(M[I].N) + "}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

bool parseArgs(int Argc, char **Argv, Config &C) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    auto value = [&](std::string_view Flag, std::string &Out) {
      if (A.substr(0, Flag.size()) != Flag)
        return false;
      Out = std::string(A.substr(Flag.size()));
      return true;
    };
    std::string V;
    if (value("--workload=", C.Workload) ||
        value("--expected=", C.ExpectedDir) ||
        value("--work-dir=", C.WorkDir) || value("--trace-out=", C.TraceOut))
      continue;
    if (value("--seed=", V))
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (value("--seconds=", V))
      C.Seconds = std::atoi(V.c_str());
    else if (A == "--traced")
      C.Traced = true;
    else
      return false;
  }
  static const char *Known[] = {"suite-oneshot", "verify-final", "server-cold",
                                "server-hot"};
  return C.Seconds > 0 &&
         std::find_if(std::begin(Known), std::end(Known), [&](const char *K) {
           return C.Workload == K;
         }) != std::end(Known);
}

} // namespace

int main(int Argc, char **Argv) {
  Epoch = Clock::now();
  Run R;
  if (!parseArgs(Argc, Argv, R.Cfg)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=suite-oneshot|verify-final|"
                 "server-cold|server-hot --seed=S --seconds=T [--traced] "
                 "[--expected=DIR] [--work-dir=DIR] [--trace-out=FILE]\n");
    return 2;
  }
  for (int I = 0; I <= ServerClients; ++I)
    R.Logs.push_back(std::make_unique<SpanLog>());
  ThreadLog = R.Logs[0].get();

  std::vector<double> SetupS;
  std::unique_ptr<SetUp> S;
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    // Tear the previous set-up down, untimed, and hand its heap back.
    // Otherwise glibc's per-thread arenas keep either none or ~20 MiB of
    // the torn-down servers, depending on how threads land on arenas, and
    // server-hot's peak_rss_mb jumped between 50 and 72 MiB across runs.
    S.reset();
    malloc_trim(0);
    const int64_t T0 = nowNs();
    S = prepare(R, Rep);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  const bool Server = R.Cfg.Workload.rfind("server-", 0) == 0;
  if (Server && !S->Rig) {
    printResult(R, {}); // the failed start is in the tally
    return 0;
  }
  std::vector<KeptResponse> Kept;
  TimedResult T = Server ? runServer(R, *S, Kept)
                         : runOneShot(R, *S, R.Cfg.Workload == "verify-final");
  if (Server)
    replayServer(R, *S, Kept);

  std::vector<Metric> M;
  endToEndMetrics(M, SetupS, T, Server ? ServerClients : 1, S->Quality);
  if (R.Cfg.Traced)
    layerMetrics(M, R, T, S->Quality);
  S.reset(); // stop the server and remove its directory
  if (R.Cfg.Traced && !R.Cfg.TraceOut.empty() && !writeTrace(R, R.Cfg.TraceOut))
    R.Checks.check(false, R.Cfg.TraceOut, "cannot write the trace");
  printResult(R, M);
  return 0;
}
