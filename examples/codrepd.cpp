//===- codrepd.cpp - The compile-server daemon ------------------------------===//
//
// The multi-tenant face of the library: listens on a Unix-domain socket,
// serves framed CompileRequests from a shared ThreadPool, and answers every
// tenant out of one content-addressed PipelineCache. SIGTERM/SIGINT drain
// gracefully: in-flight compiles finish, their responses flush, telemetry
// is written, then the process exits 0.
//
// Usage:
//   codrepd --socket=PATH [--jobs=N] [--pipeline-cache[=DIR]]
//           [--cache-budget=BYTES] [observability and verification flags]
//
// Example:
//   ./build/examples/codrepd --socket=/tmp/codrepd.sock --jobs=4
//       --pipeline-cache=/tmp/fncache --cache-budget=64M &
//   ./build/examples/loadgen --socket=/tmp/codrepd.sock --requests=200
//   kill -TERM %1
//
//===----------------------------------------------------------------------===//

#include "cache/PipelineCli.h"
#include "obs/ObsCli.h"
#include "server/Server.h"
#include "support/FlagTable.h"
#include "verify/VerifyCli.h"

#include <csignal>
#include <cstdio>
#include <string>

using namespace coderep;

// requestStop is async-signal-safe (one write() to a self-pipe), so the
// handler may call it directly. Plain pointer: set before signals are
// installed, never cleared while they can fire.
static server::CompileServer *TheServer = nullptr;

static void onSignal(int) {
  if (TheServer)
    TheServer->requestStop();
}

int main(int Argc, char **Argv) {
  std::string SocketPath;
  cache::PipelineCli Pipe;
  obs::ObsCli Obs("codrepd");
  verify::VerifyCli Verify;

  support::FlagTable Flags("codrepd");
  Flags.text("socket", SocketPath, "PATH", "socket to serve on (required)");
  Pipe.addFlags(Flags);
  Obs.addFlags(Flags);
  Verify.addFlags(Flags);
  Flags.parseOrExit(Argc, Argv);
  if (SocketPath.empty())
    return Flags.usageError("missing --socket=PATH");

  server::ServerOptions SO;
  SO.SocketPath = SocketPath;
  opt::PipelineOptions &Base = SO.Base;
  Base.Trace = Obs.config();
  Pipe.apply(Base);
  Verify.apply(Base);
  SO.Jobs = Pipe.jobs();
  SO.Sink = Obs.sink();
  SO.SessionJournal = Obs.journal();

  // The daemon always shares one cache across tenants; without
  // --pipeline-cache it is process-local in-memory.
  cache::PipelineCache OwnCache;
  cache::PipelineCache *Cache = Pipe.cache() ? Pipe.cache() : &OwnCache;
  SO.Cache = Cache;
  Base.FunctionCache = Cache;

  server::CompileServer Server(std::move(SO));
  TheServer = &Server;
  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "codrepd: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "codrepd: serving on %s\n", SocketPath.c_str());

  Server.wait(); // returns after requestStop() has fully drained

  const server::ServerStats S = Server.stats();
  std::fprintf(stderr,
               "codrepd: drained: %lld requests (%lld errors, %lld protocol "
               "errors) over %lld connections, fn-cache hit rate %.1f%%, "
               "request p50 %lld us p99 %lld us\n",
               static_cast<long long>(S.RequestsServed),
               static_cast<long long>(S.RequestErrors),
               static_cast<long long>(S.ProtocolErrors),
               static_cast<long long>(S.ConnectionsAccepted),
               100.0 * S.hitRate(),
               static_cast<long long>(S.RequestUs.quantile(0.5)),
               static_cast<long long>(S.RequestUs.quantile(0.99)));
  if (obs::TraceSink *Sink = Obs.sink())
    Cache->publishMetrics(Sink->metrics());
  bool VerifyOk = Verify.finish(Obs.sink());
  return Obs.finish() && VerifyOk ? 0 : 1;
}
