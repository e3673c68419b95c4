// Framed byte transport for the solver service.
//
// The wire unit is a length-prefixed frame: a fixed 16-byte little-endian
// header (magic, frame type, payload length) followed by the payload.  The
// reader validates the magic and caps the declared length at 64 MiB before
// allocating — a corrupted or hostile length field fails with a structured
// ProtocolError, it never drives an allocation (the same posture as
// io/binary_io's payload-length check).
//
// Streams carry per-operation timeouts: FdStream wraps a connected socket
// and bounds every read/write chunk with poll(2), so a peer that stops
// draining (or stops sending mid-frame) costs the calling thread at most
// the timeout, never a wedge.  TimeoutError derives from TransportError so
// callers can distinguish "slow peer" from "broken peer" when deciding to
// retry.  Writes use send(2) with MSG_NOSIGNAL: a peer that hung up makes
// the write fail with EPIPE -> TransportError instead of raising a
// process-killing SIGPIPE (the daemon additionally ignores SIGPIPE at
// startup via qs::ignore_sigpipe for non-socket fds).
//
// The Stream interface exists so tests can interpose fault injection
// (reference/fault_injection: drop, delay, short-read, corrupt) between the
// protocol layer and the file descriptor without touching kernel sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace qs::service {

/// Any transport-layer failure: peer gone, short read, poll error.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A read or write did not complete within its timeout.
class TimeoutError : public TransportError {
 public:
  using TransportError::TransportError;
};

/// A frame violated the wire format (bad magic, absurd length, truncation).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Byte stream with blocking-with-timeout semantics.  read_exact either
/// fills the whole span or throws; write_all either sends every byte or
/// throws.  Implementations must be usable from one thread at a time.
class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads exactly `size` bytes into `data`.  Throws TimeoutError when the
  /// deadline passes mid-read, TransportError on EOF or socket error.
  virtual void read_exact(void* data, std::size_t size) = 0;

  /// Writes all `size` bytes.  Throws TimeoutError / TransportError.
  virtual void write_all(const void* data, std::size_t size) = 0;
};

/// Stream over a connected file descriptor (AF_UNIX or TCP socket, pipe).
/// Owns the fd and closes it on destruction.  Every chunk transferred is
/// gated by poll(2) with the configured timeout.
class FdStream final : public Stream {
 public:
  /// Takes ownership of `fd`.  `timeout_ms` bounds each read/write chunk
  /// and must be nonzero — there is no wait-forever mode (an unbounded poll
  /// would let one stalled peer pin a thread and hang server shutdown).
  /// Throws TransportError (closing `fd`) on a zero timeout.
  explicit FdStream(int fd, unsigned timeout_ms = 5000);
  ~FdStream() override;

  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  void read_exact(void* data, std::size_t size) override;
  void write_all(const void* data, std::size_t size) override;

  int fd() const { return fd_; }
  unsigned timeout_ms() const { return timeout_ms_; }
  void set_timeout_ms(unsigned timeout_ms) {
    if (timeout_ms == 0) {
      throw TransportError("FdStream: timeout_ms must be nonzero");
    }
    timeout_ms_ = timeout_ms;
  }

  /// Non-blocking liveness probe: true once the peer has hung up (POLLHUP /
  /// POLLERR, or a pending EOF).  The server polls this while a request
  /// waits in the queue so a vanished client can cancel its own work.
  bool peer_closed() const;

 private:
  int fd_ = -1;
  unsigned timeout_ms_ = 5000;
};

/// Frame types on the wire.
enum class FrameType : std::uint32_t {
  solve_request = 1,
  solve_reply = 2,
  ping = 3,
  pong = 4,
  stats_request = 5,  ///< Empty payload; answered off the solver path.
  stats_reply = 6,    ///< Payload is the UTF-8 text exposition (stats.hpp).
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::ping;
  std::vector<std::uint8_t> payload;
};

/// Largest payload a frame may declare (64 MiB).  A reply for nu = 20 is a
/// few hundred KiB; anything near the cap is a corrupted or hostile header.
inline constexpr std::uint64_t kMaxFramePayload = 64ull << 20;

/// Writes `frame` to `stream` (header + payload, single logical operation).
void write_frame(Stream& stream, const Frame& frame);

/// Reads one frame.  Throws ProtocolError on bad magic, unknown type, or a
/// declared length above kMaxFramePayload; transport errors pass through.
Frame read_frame(Stream& stream);

}  // namespace qs::service
