//===- loadgen.cpp - Compile-server load generator --------------------------===//
//
// Replays a mixed workload (the paper's 14 suite programs plus random MiniC
// from verify::randomProgram) against a running codrepd, with N worker
// threads each holding its own connection, and reports client-observed
// p50/p99 latency, throughput and the server-side function-cache hit rate.
//
// With --check, every response is compared byte-for-byte against a local
// one-shot driver::compile of the same request - the acceptance oracle that
// daemon output is indistinguishable from in-process output.
//
// Usage:
//   loadgen --socket=PATH [--requests=N] [--jobs=N] [--seeds=N] [--check]
//           [--min-hit-rate=X]
//
// Exit status: 0 on success; 1 when any round-trip failed, any --check
// mismatched, or the hit rate fell below --min-hit-rate (a number in
// [0, 1]); 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cfg/FunctionPrinter.h"
#include "obs/Histogram.h"
#include "server/Client.h"
#include "support/FlagTable.h"
#include "verify/RandomProgram.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace coderep;

namespace {

struct WorkerResult {
  obs::Histogram LatencyUs;
  int64_t Ok = 0, Errors = 0, Mismatches = 0;
  int64_t FnHits = 0, FnMisses = 0;
  std::string FirstError;
};

int64_t nowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string SocketPath;
  int Requests = 200, Jobs = 4, Seeds = 8;
  bool Check = false;
  double MinHitRate = -1.0;

  support::FlagTable Flags("loadgen");
  Flags.text("socket", SocketPath, "PATH", "the daemon's socket (required)");
  Flags.count("requests", Requests, "requests to send (default 200)", 1);
  Flags.count("jobs", Jobs, "concurrent connections (default 4)", 1);
  Flags.count("seeds", Seeds, "random programs in the mix (default 8)");
  Flags.flag("check", Check, "compare each response with a local compile");
  Flags.real("min-hit-rate", MinHitRate, "X", "fail below this hit rate", 0, 1);
  Flags.parseOrExit(Argc, Argv);
  if (SocketPath.empty())
    return Flags.usageError("missing --socket=PATH");

  // The workload: every suite program plus `Seeds` random programs, cycled
  // round-robin until `Requests` requests exist. Repeats are the point -
  // they are what a shared cache turns into hits.
  std::vector<server::CompileRequest> Work;
  for (const bench::BenchProgram &BP : bench::suite()) {
    server::CompileRequest R;
    R.Name = BP.Name;
    R.Source = BP.Source;
    Work.push_back(std::move(R));
  }
  for (int S = 0; S < Seeds; ++S) {
    server::CompileRequest R;
    R.Name = "random-" + std::to_string(S);
    R.Source = verify::randomProgram(static_cast<uint64_t>(S) + 1);
    Work.push_back(std::move(R));
  }

  // With --check, precompute the expected RTL once per distinct request
  // via the one-shot driver (no cache, no server).
  std::map<std::string, std::string> Expected;
  if (Check) {
    for (const server::CompileRequest &R : Work) {
      driver::Compilation C = driver::compile(R.Source, R.Target, R.Level);
      Expected[R.Name] = C.ok() ? cfg::toString(*C.Prog) : "";
    }
  }

  std::atomic<int> Next{0};
  std::vector<WorkerResult> Results(static_cast<size_t>(Jobs));
  std::vector<std::thread> Workers;
  const int64_t T0 = nowUs();

  for (int W = 0; W < Jobs; ++W) {
    Workers.emplace_back([&, W] {
      WorkerResult &Out = Results[static_cast<size_t>(W)];
      server::Client Conn;
      std::string Err;
      if (!Conn.connect(SocketPath, Err)) {
        Out.Errors = 1;
        Out.FirstError = "connect: " + Err;
        return;
      }
      for (int I = Next.fetch_add(1); I < Requests; I = Next.fetch_add(1)) {
        const server::CompileRequest &Req =
            Work[static_cast<size_t>(I) % Work.size()];
        server::CompileResponse Resp;
        const int64_t Start = nowUs();
        if (!Conn.roundtrip(Req, Resp, Err)) {
          ++Out.Errors;
          if (Out.FirstError.empty())
            Out.FirstError = Req.Name + ": " + Err;
          return; // transport is gone; this worker is done
        }
        Out.LatencyUs.record(nowUs() - Start);
        Out.FnHits += Resp.FnCacheHits;
        Out.FnMisses += Resp.FnCacheMisses;
        if (!Resp.Ok) {
          ++Out.Errors;
          if (Out.FirstError.empty())
            Out.FirstError = Req.Name + ": " + Resp.Error;
          continue;
        }
        ++Out.Ok;
        if (Check && Resp.Rtl != Expected[Req.Name]) {
          ++Out.Mismatches;
          if (Out.FirstError.empty())
            Out.FirstError = Req.Name + ": RTL differs from local compile";
        }
      }
    });
  }
  for (std::thread &T : Workers)
    T.join();
  const double ElapsedS =
      static_cast<double>(nowUs() - T0) / 1e6;

  obs::Histogram Latency;
  WorkerResult Sum;
  for (const WorkerResult &R : Results) {
    Latency.merge(R.LatencyUs);
    Sum.Ok += R.Ok;
    Sum.Errors += R.Errors;
    Sum.Mismatches += R.Mismatches;
    Sum.FnHits += R.FnHits;
    Sum.FnMisses += R.FnMisses;
    if (Sum.FirstError.empty())
      Sum.FirstError = R.FirstError;
  }
  const int64_t Total = Sum.FnHits + Sum.FnMisses;
  const double HitRate =
      Total > 0 ? static_cast<double>(Sum.FnHits) / Total : 0.0;
  const double Throughput =
      ElapsedS > 0 ? static_cast<double>(Latency.count()) / ElapsedS : 0.0;

  std::printf("loadgen: %lld ok, %lld errors, %lld mismatches over %d "
              "workers in %.2fs\n"
              "latency p50 %lld us, p99 %lld us, max %lld us\n"
              "throughput %.1f req/s, fn-cache hit rate %.1f%% "
              "(%lld hits, %lld misses)\n",
              static_cast<long long>(Sum.Ok),
              static_cast<long long>(Sum.Errors),
              static_cast<long long>(Sum.Mismatches), Jobs, ElapsedS,
              static_cast<long long>(Latency.quantile(0.5)),
              static_cast<long long>(Latency.quantile(0.99)),
              static_cast<long long>(Latency.max()), Throughput,
              100.0 * HitRate, static_cast<long long>(Sum.FnHits),
              static_cast<long long>(Sum.FnMisses));
  if (!Sum.FirstError.empty())
    std::fprintf(stderr, "loadgen: first error: %s\n", Sum.FirstError.c_str());

  if (Sum.Errors > 0 || Sum.Mismatches > 0)
    return 1;
  if (MinHitRate >= 0.0 && HitRate < MinHitRate) {
    std::fprintf(stderr, "loadgen: hit rate %.3f below required %.3f\n",
                 HitRate, MinHitRate);
    return 1;
  }
  return 0;
}
