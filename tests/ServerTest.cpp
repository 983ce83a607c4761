//===- ServerTest.cpp - Compile-server protocol and daemon tests ----------===//
//
// Covers the codrepd building blocks end to end: the framed payload codec
// (round-trips, corrupt-frame rejection), the daemon core over a real
// Unix-domain socket (byte-identity with one-shot driver::compile, warm
// cache hits, compile and protocol error paths), graceful drain
// (in-flight requests answered, listener closed, stats final) and the
// socket file's lifecycle (unlinked by the drain, never taken from a live
// server, replaced when stale).
//
// The CompileServer suite runs in the TSan CI matrix: the accept thread,
// reader threads, pool workers and the shared cache are exactly the
// cross-thread traffic TSan is for.
//
//===----------------------------------------------------------------------===//

#include "Suite.h"
#include "cfg/FunctionPrinter.h"
#include "driver/Compiler.h"
#include "server/Client.h"
#include "server/Server.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace coderep;
using namespace coderep::bench;

namespace {

/// Socket paths live in /tmp (not ::testing::TempDir()): sun_path caps at
/// ~108 bytes and nested test dirs can blow it.
std::string tempSocket(const char *Tag) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "/tmp/coderep_srv_%ld_%s.sock",
                static_cast<long>(::getpid()), Tag);
  return Buf;
}

std::string oneShotRtl(const std::string &Source, target::TargetKind TK,
                       opt::OptLevel Level) {
  driver::Compilation C = driver::compile(Source, TK, Level);
  return C.ok() ? cfg::toString(*C.Prog) : std::string();
}

/// A server on a fresh socket with its own in-memory cache.
struct TestServer {
  cache::PipelineCache Cache;
  std::unique_ptr<server::CompileServer> Server;
  std::string Socket;

  explicit TestServer(const char *Tag, int Jobs = 2,
                      opt::FunctionVerifier *Verifier = nullptr)
      : Socket(tempSocket(Tag)) {
    server::ServerOptions SO;
    SO.SocketPath = Socket;
    SO.Jobs = Jobs;
    SO.Cache = &Cache;
    SO.Base.Verifier = Verifier;
    Server = std::make_unique<server::CompileServer>(std::move(SO));
    std::string Err;
    EXPECT_TRUE(Server->start(Err)) << Err;
  }
  ~TestServer() {
    Server->requestStop();
    Server->wait();
    std::remove(Socket.c_str());
  }
};

TEST(ServerProtocol, RequestRoundTrip) {
  server::CompileRequest R;
  R.Name = "queens";
  R.Source = "int main() { return 7; }\n";
  R.Target = target::TargetKind::M68;
  R.Level = opt::OptLevel::Loops;
  R.MaxSequenceRtls = 12;
  R.MaxGrowthFactor = 3.25;
  R.MaxReplacements = 55;
  R.Heuristic = 2;
  R.AllowIndirectEndings = true;

  server::CompileRequest Out;
  std::string Err;
  ASSERT_TRUE(server::decodeRequest(server::encodeRequest(R), Out, Err))
      << Err;
  EXPECT_EQ(Out.Name, R.Name);
  EXPECT_EQ(Out.Source, R.Source);
  EXPECT_EQ(Out.Target, R.Target);
  EXPECT_EQ(Out.Level, R.Level);
  EXPECT_EQ(Out.MaxSequenceRtls, R.MaxSequenceRtls);
  EXPECT_DOUBLE_EQ(Out.MaxGrowthFactor, R.MaxGrowthFactor);
  EXPECT_EQ(Out.MaxReplacements, R.MaxReplacements);
  EXPECT_EQ(Out.Heuristic, R.Heuristic);
  EXPECT_EQ(Out.AllowIndirectEndings, R.AllowIndirectEndings);
}

TEST(ServerProtocol, ResponseRoundTrip) {
  server::CompileResponse R;
  R.Ok = true;
  R.Rtl = "function main\nblock L0\n";
  R.QueueUs = 17;
  R.CompileUs = 4242;
  R.FnCacheHits = 3;
  R.FnCacheMisses = 1;

  server::CompileResponse Out;
  std::string Err;
  ASSERT_TRUE(server::decodeResponse(server::encodeResponse(R), Out, Err))
      << Err;
  EXPECT_TRUE(Out.Ok);
  EXPECT_EQ(Out.Rtl, R.Rtl);
  EXPECT_EQ(Out.QueueUs, R.QueueUs);
  EXPECT_EQ(Out.CompileUs, R.CompileUs);
  EXPECT_EQ(Out.FnCacheHits, R.FnCacheHits);
  EXPECT_EQ(Out.FnCacheMisses, R.FnCacheMisses);

  server::CompileResponse E;
  E.Ok = false;
  E.Error = "parse error: line 3";
  ASSERT_TRUE(server::decodeResponse(server::encodeResponse(E), Out, Err));
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Error, E.Error);
}

TEST(ServerProtocol, RejectsCorruptPayloads) {
  server::CompileRequest R;
  R.Source = "int main() { return 0; }";
  const std::string Good = server::encodeRequest(R);

  server::CompileRequest Out;
  std::string Err;
  // Wrong magic.
  EXPECT_FALSE(server::decodeRequest("coderep-nonsense 1\n", Out, Err));
  // Truncated mid-blob: every prefix must fail, not crash or misparse.
  for (size_t Cut : {size_t(0), size_t(5), Good.size() / 2, Good.size() - 1})
    EXPECT_FALSE(
        server::decodeRequest(Good.substr(0, Cut), Out, Err))
        << "prefix of " << Cut << " bytes";
  // Unknown target and out-of-range heuristic.
  std::string BadTarget = Good;
  size_t At = BadTarget.find("target sparc");
  ASSERT_NE(At, std::string::npos);
  BadTarget.replace(At, 12, "target vax!!");
  EXPECT_FALSE(server::decodeRequest(BadTarget, Out, Err));
  std::string BadHeur = Good;
  At = BadHeur.find("heuristic 0");
  ASSERT_NE(At, std::string::npos);
  BadHeur.replace(At, 11, "heuristic 9");
  EXPECT_FALSE(server::decodeRequest(BadHeur, Out, Err));
}

// The growth factor sizes the replication budget, so a value that is not
// a finite number is rejected at the boundary.
TEST(ServerProtocol, RejectsNonFiniteGrowth) {
  server::CompileRequest R;
  R.Source = "int main() { return 0; }";
  const std::string Good = server::encodeRequest(R);
  const size_t At = Good.find("growth ");
  ASSERT_NE(At, std::string::npos);
  const size_t End = Good.find('\n', At);
  for (const char *Value : {"nan", "-nan", "inf", "-inf"}) {
    std::string Bad = Good;
    Bad.replace(At, End - At, std::string("growth ") + Value);
    server::CompileRequest Out;
    std::string Err;
    EXPECT_FALSE(server::decodeRequest(Bad, Out, Err)) << Value;
    EXPECT_EQ(Err, "bad growth value") << Value;
  }
}

TEST(CompileServer, ServesByteIdenticalRtlAndWarmsCache) {
  TestServer TS("identity");
  server::Client Conn;
  std::string Err;
  ASSERT_TRUE(Conn.connect(TS.Socket, Err)) << Err;

  // Cold pass: every response must match the one-shot driver byte for
  // byte, on both targets.
  for (target::TargetKind TK :
       {target::TargetKind::Sparc, target::TargetKind::M68})
    for (size_t I = 0; I < 3; ++I) {
      const BenchProgram &BP = suite()[I];
      server::CompileRequest Req;
      Req.Name = BP.Name;
      Req.Source = BP.Source;
      Req.Target = TK;
      server::CompileResponse Resp;
      ASSERT_TRUE(Conn.roundtrip(Req, Resp, Err)) << Err;
      ASSERT_TRUE(Resp.Ok) << Resp.Error;
      EXPECT_EQ(Resp.Rtl, oneShotRtl(BP.Source, TK, opt::OptLevel::Jumps))
          << BP.Name;
      EXPECT_GT(Resp.FnCacheMisses, 0) << BP.Name;
    }

  // Warm pass: identical request, served from the shared cache.
  {
    const BenchProgram &BP = suite()[0];
    server::CompileRequest Req;
    Req.Name = BP.Name;
    Req.Source = BP.Source;
    server::CompileResponse Resp;
    ASSERT_TRUE(Conn.roundtrip(Req, Resp, Err)) << Err;
    ASSERT_TRUE(Resp.Ok) << Resp.Error;
    EXPECT_EQ(Resp.Rtl, oneShotRtl(BP.Source, target::TargetKind::Sparc,
                                   opt::OptLevel::Jumps));
    EXPECT_GT(Resp.FnCacheHits, 0);
    EXPECT_EQ(Resp.FnCacheMisses, 0);
  }
  EXPECT_GT(TS.Server->stats().hitRate(), 0.0);
}

TEST(CompileServer, RequestOptionsReachThePipeline) {
  TestServer TS("options");
  server::Client Conn;
  std::string Err;
  ASSERT_TRUE(Conn.connect(TS.Socket, Err)) << Err;

  const BenchProgram &BP = program("queens");
  server::CompileRequest Req;
  Req.Name = BP.Name;
  Req.Source = BP.Source;

  server::CompileResponse Jumps, Simple;
  ASSERT_TRUE(Conn.roundtrip(Req, Jumps, Err)) << Err;
  Req.Level = opt::OptLevel::Simple;
  ASSERT_TRUE(Conn.roundtrip(Req, Simple, Err)) << Err;
  ASSERT_TRUE(Jumps.Ok && Simple.Ok);
  // Different levels are different cache keys and different bytes.
  EXPECT_NE(Jumps.Rtl, Simple.Rtl);
  EXPECT_EQ(Simple.Rtl, oneShotRtl(BP.Source, target::TargetKind::Sparc,
                                   opt::OptLevel::Simple));
}

TEST(CompileServer, CompileErrorKeepsConnectionUsable) {
  TestServer TS("errors");
  server::Client Conn;
  std::string Err;
  ASSERT_TRUE(Conn.connect(TS.Socket, Err)) << Err;

  server::CompileRequest Bad;
  Bad.Name = "bad";
  Bad.Source = "int main( { this is not MiniC";
  server::CompileResponse Resp;
  ASSERT_TRUE(Conn.roundtrip(Bad, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Error.empty());

  // The protocol survived; the same connection serves the next request.
  server::CompileRequest Good;
  Good.Name = "good";
  Good.Source = "int main() { return 5; }";
  ASSERT_TRUE(Conn.roundtrip(Good, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;

  const server::ServerStats S = TS.Server->stats();
  EXPECT_EQ(S.RequestErrors, 1);
  EXPECT_EQ(S.RequestsServed, 2);
}

// A verifying server runs every compiled main under the oracle on a pool
// worker. A printf of a %c byte >= 128 once threw there, and the reader
// thread's future rethrew it and took the daemon down.
TEST(CompileServer, VerifyingServerSurvivesHighBytePrintf) {
  verify::OracleOptions OO;
  OO.Gran = verify::Granularity::Final;
  verify::Oracle Oracle(OO);
  TestServer TS("oracle", 2, &Oracle);
  server::Client Conn;
  std::string Err;
  ASSERT_TRUE(Conn.connect(TS.Socket, Err)) << Err;

  server::CompileRequest Req;
  Req.Name = "highbyte";
  Req.Source = "int main() { printf(\"[%c]\", 200); return 0; }";
  server::CompileResponse Resp;
  ASSERT_TRUE(Conn.roundtrip(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;

  Req.Name = "next";
  Req.Source = "int main() { return 5; }";
  ASSERT_TRUE(Conn.roundtrip(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
  EXPECT_EQ(TS.Server->stats().RequestsServed, 2);
  EXPECT_GT(Oracle.counters().Checks, 0);
  EXPECT_TRUE(Oracle.ok());
}

TEST(CompileServer, GarbageFrameGetsProtocolErrorResponse) {
  TestServer TS("garbage");
  std::string Err;
  server::Fd Raw = server::connectUnix(TS.Socket, Err);
  ASSERT_TRUE(Raw.valid()) << Err;
  ASSERT_TRUE(server::sendFrame(Raw.get(), "definitely not a request"));
  std::string Payload;
  ASSERT_TRUE(server::recvFrame(Raw.get(), Payload));
  server::CompileResponse Resp;
  ASSERT_TRUE(server::decodeResponse(Payload, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_NE(Resp.Error.find("protocol error"), std::string::npos)
      << Resp.Error;
  Raw.reset();
  EXPECT_GE(TS.Server->stats().ProtocolErrors, 1);
}

TEST(CompileServer, ConcurrentTenantsShareOneCache) {
  TestServer TS("tenants", /*Jobs=*/4);
  const BenchProgram &BP = program("wc");
  const std::string Expected =
      oneShotRtl(BP.Source, target::TargetKind::Sparc, opt::OptLevel::Jumps);

  constexpr int Tenants = 4, PerTenant = 5;
  std::vector<std::thread> Threads;
  std::atomic<int> Failures{0};
  for (int T = 0; T < Tenants; ++T)
    Threads.emplace_back([&] {
      server::Client Conn;
      std::string Err;
      if (!Conn.connect(TS.Socket, Err)) {
        ++Failures;
        return;
      }
      for (int I = 0; I < PerTenant; ++I) {
        server::CompileRequest Req;
        Req.Name = BP.Name;
        Req.Source = BP.Source;
        server::CompileResponse Resp;
        if (!Conn.roundtrip(Req, Resp, Err) || !Resp.Ok ||
            Resp.Rtl != Expected)
          ++Failures;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  const server::ServerStats S = TS.Server->stats();
  EXPECT_EQ(S.RequestsServed, Tenants * PerTenant);
  EXPECT_EQ(S.ConnectionsAccepted, Tenants);
  // 20 identical requests: only the very first can miss.
  EXPECT_GT(S.hitRate(), 0.5);
  EXPECT_EQ(S.RequestUs.count(), Tenants * PerTenant);
}

TEST(CompileServer, GracefulDrainFinishesInFlightWork) {
  auto TS = std::make_unique<TestServer>("drain");
  const std::string Socket = TS->Socket;
  server::Client Conn;
  std::string Err;
  ASSERT_TRUE(Conn.connect(Socket, Err)) << Err;

  server::CompileRequest Req;
  Req.Name = "queens";
  Req.Source = program("queens").Source;
  server::CompileResponse Resp;
  ASSERT_TRUE(Conn.roundtrip(Req, Resp, Err)) << Err;
  ASSERT_TRUE(Resp.Ok);

  TS->Server->requestStop();
  TS->Server->wait();
  EXPECT_FALSE(TS->Server->running());
  EXPECT_EQ(TS->Server->stats().RequestsServed, 1);

  // The listener is gone: new tenants are refused.
  server::Client Late;
  EXPECT_FALSE(Late.connect(Socket, Err));

  // An idle drained connection reads EOF, not a torn frame.
  EXPECT_FALSE(Conn.roundtrip(Req, Resp, Err));
  TS.reset();
}

/// One compile of queens over a fresh connection to \p Socket.
bool answers(const std::string &Socket) {
  server::Client Conn;
  std::string Err;
  server::CompileRequest Req;
  Req.Name = "queens";
  Req.Source = program("queens").Source;
  server::CompileResponse Resp;
  return Conn.connect(Socket, Err) && Conn.roundtrip(Req, Resp, Err) &&
         Resp.Ok;
}

bool exists(const std::string &Path) {
  return ::access(Path.c_str(), F_OK) == 0;
}

TEST(CompileServer, DrainUnlinksTheSocketFile) {
  TestServer TS("unlink");
  ASSERT_TRUE(exists(TS.Socket));
  TS.Server->requestStop();
  TS.Server->wait();
  EXPECT_FALSE(exists(TS.Socket));
}

TEST(CompileServer, SecondServerOnALivePathFails) {
  TestServer First("live");
  server::ServerOptions SO;
  SO.SocketPath = First.Socket;
  server::CompileServer Second(std::move(SO));
  std::string Err;
  EXPECT_FALSE(Second.start(Err));
  EXPECT_NE(Err.find("in use"), std::string::npos) << Err;
  EXPECT_TRUE(answers(First.Socket));
}

TEST(CompileServer, StaleSocketFileIsReplaced) {
  const std::string Socket = tempSocket("stale");
  {
    // A killed daemon's leftover: bound, then closed without unlinking.
    std::string Err;
    server::Fd Dead = server::listenUnix(Socket, Err);
    ASSERT_TRUE(Dead.valid()) << Err;
  }
  ASSERT_TRUE(exists(Socket));
  TestServer TS("stale");
  EXPECT_TRUE(TS.Server->running());
  EXPECT_TRUE(answers(Socket));
}

TEST(CompileServer, ServeLocalMatchesSocketPath) {
  TestServer TS("local");
  const BenchProgram &BP = program("cal");
  server::CompileRequest Req;
  Req.Name = BP.Name;
  Req.Source = BP.Source;

  server::CompileResponse Local = TS.Server->serveLocal(Req);
  ASSERT_TRUE(Local.Ok) << Local.Error;

  server::Client Conn;
  std::string Err;
  ASSERT_TRUE(Conn.connect(TS.Socket, Err)) << Err;
  server::CompileResponse Remote;
  ASSERT_TRUE(Conn.roundtrip(Req, Remote, Err)) << Err;
  ASSERT_TRUE(Remote.Ok) << Remote.Error;
  EXPECT_EQ(Local.Rtl, Remote.Rtl);
}

} // namespace
