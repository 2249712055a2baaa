// Minimal non-blocking loopback connection for the load generator.
//
// The repository's RpcClient blocks inside Receive(), which cannot keep
// an open-loop schedule: a sender must go out at its due time even
// while replies are outstanding. WireConn encodes requests with the
// repository's own wire encoders, writes them without waiting, and
// Poll() hands back every complete reply frame that arrives before a
// deadline, so one thread can both keep a schedule and collect replies.
#ifndef PERFBENCH_WIRE_CONN_H_
#define PERFBENCH_WIRE_CONN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "serve/rpc/wire.h"

namespace perfbench {

class WireConn {
 public:
  WireConn() = default;
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY. Returns false (and
  /// fills `error`) on failure.
  bool Connect(uint16_t port, std::string* error);
  void Close();

  /// Next request id on this connection (1-based, monotone).
  uint64_t NextId() { return next_id_++; }

  /// Writes one complete frame, blocking in poll() only while the socket
  /// buffer is full. Returns false when the connection broke.
  bool Send(const std::vector<uint8_t>& frame);

  using FrameFn =
      std::function<void(const qp::serve::rpc::Frame& frame)>;
  /// Delivers every complete frame already received, then waits up to
  /// `timeout_us` (0 = do not wait, < 0 = wait for at least one frame)
  /// for more. Returns the number of frames delivered, or -1 when the
  /// connection broke or sent a malformed frame.
  int Poll(int64_t timeout_us, const FrameFn& fn);

 private:
  int Drain(const FrameFn& fn);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  std::vector<uint8_t> in_;
  size_t in_begin_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CONN_H_
