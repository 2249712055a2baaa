#include "wire_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <cstring>

namespace perfbench {

namespace rpc = qp::serve::rpc;

WireConn::~WireConn() { Close(); }

void WireConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool WireConn::Connect(uint16_t port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::strerror(errno);
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

bool WireConn::Send(const std::vector<uint8_t>& frame) {
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd_, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    return false;
  }
  return true;
}

int WireConn::Drain(const FrameFn& fn) {
  int delivered = 0;
  for (;;) {
    size_t consumed = 0;
    rpc::Frame frame;
    rpc::ExtractResult r = rpc::ExtractFrame(
        in_.data() + in_begin_, in_.size() - in_begin_, &consumed, &frame);
    if (r == rpc::ExtractResult::kError) return -1;
    if (r == rpc::ExtractResult::kNeedMore) break;
    fn(frame);
    in_begin_ += consumed;
    ++delivered;
  }
  if (in_begin_ == in_.size()) {
    in_.clear();
    in_begin_ = 0;
  } else if (in_begin_ > (1u << 16)) {
    in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(in_begin_));
    in_begin_ = 0;
  }
  return delivered;
}

int WireConn::Poll(int64_t timeout_us, const FrameFn& fn) {
  int total = Drain(fn);
  if (total < 0) return -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(std::max<int64_t>(0, timeout_us));
  for (;;) {
    // Once a frame is in hand, only read what is already readable.
    timespec wait{0, 0};
    timespec* wait_ptr = &wait;
    if (total == 0) {
      if (timeout_us < 0) {
        wait_ptr = nullptr;
      } else {
        auto left = deadline - std::chrono::steady_clock::now();
        int64_t ns = std::max<int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(left).count());
        wait.tv_sec = static_cast<time_t>(ns / 1000000000);
        wait.tv_nsec = static_cast<long>(ns % 1000000000);
      }
    }
    pollfd p{fd_, POLLIN, 0};
    int ready = ::ppoll(&p, 1, wait_ptr, nullptr);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return total;
    uint8_t buf[65536];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) return -1;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return -1;
    }
    in_.insert(in_.end(), buf, buf + n);
    int got = Drain(fn);
    if (got < 0) return -1;
    total += got;
  }
}

}  // namespace perfbench
