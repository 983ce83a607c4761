//===- Client.h - Compile-server client library -----------------*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the compile-server protocol, used by
/// examples/loadgen and the server tests: one persistent connection,
/// lockstep request/response round-trips.
/// Thread model: one Client per thread; concurrency comes from many
/// clients, mirroring how real tenants use the daemon.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SERVER_CLIENT_H
#define CODEREP_SERVER_CLIENT_H

#include "server/Protocol.h"
#include "server/Socket.h"

#include <string>

namespace coderep::server {

/// One connection to a codrepd instance.
class Client {
public:
  /// Connects to the daemon at \p SocketPath. Returns false and sets
  /// \p Err when the daemon is not reachable.
  bool connect(const std::string &SocketPath, std::string &Err);

  /// Sends \p Req and blocks for the response. Returns false and sets
  /// \p Err on any transport or codec failure (a response with
  /// status=error still returns true - the protocol worked). After a
  /// transport failure the connection is closed.
  bool roundtrip(const CompileRequest &Req, CompileResponse &Resp,
                 std::string &Err);

  bool connected() const { return Sock.valid(); }
  void close() { Sock.reset(); }

private:
  Fd Sock;
};

} // namespace coderep::server

#endif // CODEREP_SERVER_CLIENT_H
