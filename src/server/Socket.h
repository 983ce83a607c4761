//===- Socket.h - Unix-domain sockets with length-prefixed frames -*- C++ -*-===//
//
// Part of the coderep project: a reproduction of Mueller & Whalley,
// "Avoiding Unconditional Jumps by Code Replication", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport under the compile-server protocol: blocking Unix-domain
/// stream sockets carrying length-prefixed frames. A frame is a 4-byte
/// little-endian payload length followed by that many bytes; the payload
/// codec lives in Protocol.h. All writes use MSG_NOSIGNAL so a peer that
/// hangs up mid-frame surfaces as an error return, never SIGPIPE.
///
/// Everything here is deliberately primitive - file descriptors, EINTR
/// retry loops, poll - because the server's concurrency model (one
/// blocking reader thread per connection, compiles fanned onto the shared
/// ThreadPool) wants plain blocking I/O, and the loadgen client wants the
/// same primitives from the other side.
///
//===----------------------------------------------------------------------===//

#ifndef CODEREP_SERVER_SOCKET_H
#define CODEREP_SERVER_SOCKET_H

#include <cstdint>
#include <string>

namespace coderep::server {

/// Move-only owner of a file descriptor; closes on destruction.
class Fd {
public:
  Fd() = default;
  explicit Fd(int RawFd) : TheFd(RawFd) {}
  Fd(Fd &&Other) noexcept : TheFd(Other.release()) {}
  Fd &operator=(Fd &&Other) noexcept;
  Fd(const Fd &) = delete;
  Fd &operator=(const Fd &) = delete;
  ~Fd() { reset(); }

  bool valid() const { return TheFd >= 0; }
  int get() const { return TheFd; }
  int release();
  void reset(int RawFd = -1);

private:
  int TheFd = -1;
};

/// Writes one frame (4-byte LE length + payload). Returns false when the
/// peer is gone or the payload exceeds the protocol's frame cap.
bool sendFrame(int FdNum, const std::string &Payload);

/// Reads one frame into \p Payload. Returns false on clean EOF (empty
/// \p Payload) or any error/oversized/torn frame (\p Payload holds a
/// diagnostic marker only in the sense of being cleared).
bool recvFrame(int FdNum, std::string &Payload);

/// Binds and listens on a Unix-domain socket at \p Path, replacing a
/// stale file there. Fails when a live server accepts connections on
/// \p Path. Returns an invalid Fd and sets \p Err on failure. \p Backlog
/// is the listen(2) backlog.
Fd listenUnix(const std::string &Path, std::string &Err, int Backlog = 128);

/// Accepts one connection; blocks. Returns an invalid Fd on error (e.g.
/// the listener was closed by another thread).
Fd acceptUnix(int ListenFd);

/// Connects to the Unix-domain socket at \p Path. Returns an invalid Fd
/// and sets \p Err on failure.
Fd connectUnix(const std::string &Path, std::string &Err);

/// shutdown(2) the read side so a blocking recvFrame in another thread
/// returns EOF; pending writes still flush. Used for graceful drain.
void shutdownRead(int FdNum);

} // namespace coderep::server

#endif // CODEREP_SERVER_SOCKET_H
