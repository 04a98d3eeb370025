// Thin RAII wrappers over POSIX TCP sockets, with the wire protocol's
// length-prefixed framing (send/recv one frame = u32 length + payload).
//
// Blocking I/O throughout: a frame send/recv occupies its calling thread
// (the storage server's per-connection readers and the fault relay; the
// proxy's AsyncNetClient only dials through here and then hands the socket
// to its event loop). EINTR is retried; SIGPIPE is suppressed via
// MSG_NOSIGNAL. Shutdown() from another thread unblocks a blocked recv,
// which is how the server tears down cleanly.
#ifndef OBLADI_SRC_NET_SOCKET_H_
#define OBLADI_SRC_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/common/types.h"

namespace obladi {

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { Close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // Blocking connect to host:port; sets TCP_NODELAY (the protocol is
  // request/response, so Nagle only adds latency).
  static StatusOr<TcpSocket> Connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  Status SendAll(const uint8_t* data, size_t n);
  Status RecvAll(uint8_t* data, size_t n);

  // One frame: u32 payload length (LE), then the payload. Rejects payloads
  // larger than max_frame_bytes (or than the u32 length field can carry)
  // with InvalidArgument *before* transmitting anything: a wrapped length
  // prefix would silently desync the stream, and an over-limit frame would
  // be dropped by the receiver only after a full wasted transmit.
  Status SendFrame(const Bytes& payload, size_t max_frame_bytes = SIZE_MAX);
  // Receives one frame; rejects frames larger than max_frame_bytes with
  // InvalidArgument (stream desync / garbage — caller should close). A peer
  // that closed cleanly between frames yields Unavailable("peer closed").
  StatusOr<Bytes> RecvFrame(size_t max_frame_bytes);

  // Unblocks any thread blocked in Recv/Send on this socket.
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
};

class TcpListener {
 public:
  TcpListener() = default;
  ~TcpListener() { Close(); }

  TcpListener(TcpListener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  // Binds with SO_REUSEADDR (a restarted server reclaims its port
  // immediately) and listens. port 0 picks an ephemeral port; read it back
  // via port().
  static StatusOr<TcpListener> Listen(const std::string& host, uint16_t port,
                                      int backlog = 64);

  bool valid() const { return fd_ >= 0; }
  uint16_t port() const { return port_; }

  // Blocking accept. Returns Unavailable once Shutdown() has been called.
  StatusOr<TcpSocket> Accept();

  // Unblocks a blocked Accept().
  void Shutdown();
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace obladi

#endif  // OBLADI_SRC_NET_SOCKET_H_
