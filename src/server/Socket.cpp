//===- Socket.cpp - Unix-domain sockets with length-prefixed frames -------===//

#include "server/Socket.h"

#include "server/Protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace coderep::server;

Fd &Fd::operator=(Fd &&Other) noexcept {
  if (this != &Other)
    reset(Other.release());
  return *this;
}

int Fd::release() {
  int RawFd = TheFd;
  TheFd = -1;
  return RawFd;
}

void Fd::reset(int RawFd) {
  if (TheFd >= 0)
    ::close(TheFd);
  TheFd = RawFd;
}

namespace {

/// Full-buffer send with EINTR retry; MSG_NOSIGNAL turns a dead peer into
/// an EPIPE error return instead of a process-wide signal.
bool sendAll(int FdNum, const void *Buf, size_t Len) {
  const char *P = static_cast<const char *>(Buf);
  while (Len > 0) {
    ssize_t N = ::send(FdNum, P, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Full-buffer recv with EINTR retry. Returns 1 on success, 0 on clean
/// EOF before any byte, -1 on error or EOF mid-buffer.
int recvAll(int FdNum, void *Buf, size_t Len) {
  char *P = static_cast<char *>(Buf);
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::recv(FdNum, P + Got, Len - Got, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N == 0)
      return Got == 0 ? 0 : -1;
    Got += static_cast<size_t>(N);
  }
  return 1;
}

bool fillSockaddr(const std::string &Path, sockaddr_un &Addr,
                  std::string &Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path empty or too long: '" + Path + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

bool coderep::server::sendFrame(int FdNum, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  unsigned char Hdr[4] = {
      static_cast<unsigned char>(Len & 0xff),
      static_cast<unsigned char>((Len >> 8) & 0xff),
      static_cast<unsigned char>((Len >> 16) & 0xff),
      static_cast<unsigned char>((Len >> 24) & 0xff),
  };
  return sendAll(FdNum, Hdr, sizeof(Hdr)) &&
         sendAll(FdNum, Payload.data(), Payload.size());
}

bool coderep::server::recvFrame(int FdNum, std::string &Payload) {
  Payload.clear();
  unsigned char Hdr[4];
  if (recvAll(FdNum, Hdr, sizeof(Hdr)) != 1)
    return false;
  uint32_t Len = static_cast<uint32_t>(Hdr[0]) |
                 (static_cast<uint32_t>(Hdr[1]) << 8) |
                 (static_cast<uint32_t>(Hdr[2]) << 16) |
                 (static_cast<uint32_t>(Hdr[3]) << 24);
  if (Len > MaxFrameBytes)
    return false;
  Payload.assign(Len, '\0');
  if (Len > 0 && recvAll(FdNum, Payload.data(), Len) != 1) {
    Payload.clear();
    return false;
  }
  return true;
}

Fd coderep::server::listenUnix(const std::string &Path, std::string &Err,
                               int Backlog) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return Fd();
  Fd Sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!Sock.valid()) {
    Err = std::string("socket: ") + std::strerror(errno);
    return Fd();
  }
  // The file is just a rendezvous name. If a live server accepts on it,
  // the name is taken; anything else there (a killed daemon's stale
  // socket) would only make bind fail with EADDRINUSE, so replace it.
  std::string ProbeErr;
  if (connectUnix(Path, ProbeErr).valid()) {
    Err = "socket " + Path + " is in use by a running server";
    return Fd();
  }
  ::unlink(Path.c_str());
  if (::bind(Sock.get(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Err = "bind " + Path + ": " + std::strerror(errno);
    return Fd();
  }
  if (::listen(Sock.get(), Backlog) < 0) {
    Err = "listen " + Path + ": " + std::strerror(errno);
    return Fd();
  }
  return Sock;
}

Fd coderep::server::acceptUnix(int ListenFd) {
  for (;;) {
    int Conn = ::accept(ListenFd, nullptr, nullptr);
    if (Conn >= 0)
      return Fd(Conn);
    if (errno == EINTR)
      continue;
    return Fd();
  }
}

Fd coderep::server::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  if (!fillSockaddr(Path, Addr, Err))
    return Fd();
  Fd Sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!Sock.valid()) {
    Err = std::string("socket: ") + std::strerror(errno);
    return Fd();
  }
  for (;;) {
    if (::connect(Sock.get(), reinterpret_cast<sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      return Sock;
    if (errno == EINTR)
      continue;
    Err = "connect " + Path + ": " + std::strerror(errno);
    return Fd();
  }
}

void coderep::server::shutdownRead(int FdNum) {
  ::shutdown(FdNum, SHUT_RD);
}
