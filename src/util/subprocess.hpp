// POSIX process primitives for the multi-process campaign supervisor.
//
// The supervisor (faultsim/supervisor.hpp) isolates fault-simulation shards
// in forked worker processes so that a segfault, OOM kill, or runaway
// allocation in one fault's MOT expansion can never take down the whole
// campaign. This header holds the process-level plumbing that design needs,
// kept free of any fault-simulation knowledge so it is testable on its own:
//
//  * spawn()             fork a child wired to the parent by two pipes
//                        (commands down, results up), optionally closing
//                        given descriptors in the child first;
//  * frame protocol      length-prefixed frames (1-byte type, 4-byte
//                        little-endian payload length, payload) — a torn or
//                        short frame is detectable, never silently merged
//                        with its neighbour;
//  * FrameReader         incremental reassembly for the coordinator's
//                        non-blocking poll loop and the worker's
//                        between-faults command check;
//  * wait helpers        waitpid wrappers plus describe_wait_status(), which
//                        turns an exit status into the one-token diagnostic
//                        ("signal_9_Killed") recorded against faults that
//                        kill their workers.
//
// Everything here restarts on EINTR explicitly — the campaign CLI installs
// signal handlers without SA_RESTART on purpose, so every blocking call in
// this file must tolerate interruption.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "util/byte_channel.hpp"

namespace motsim::subprocess {

/// Marks `fd` non-blocking (coordinator read ends). Returns 0 or errno.
int set_nonblocking(int fd);

/// One direction of a parent<->child channel.
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;
};

/// Creates a pipe. Returns 0 or errno.
int make_pipe(Pipe& p);

/// Frame header: type byte + 32-bit little-endian payload length.
inline constexpr std::size_t kFrameHeaderBytes = 5;
/// Upper bound on a frame payload. Far above any journal record or shard
/// assignment; a length field beyond it means the stream is corrupt (or the
/// peer is speaking a different protocol) and the reader reports that
/// instead of trying to allocate the advertised amount.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/// Writes one complete frame, restarting on EINTR and tolerating partial
/// writes. Returns 0 or errno (EPIPE when the reader died). Not atomic
/// across concurrent writers — callers serialize writes to one channel.
int write_frame(netio::ByteChannel& chan, std::uint8_t type,
                std::string_view payload);

/// Same, over a raw fd (the fork/pipe transport's historical entry point).
int write_frame(int fd, std::uint8_t type, std::string_view payload);

/// Incremental frame reassembly over a (typically non-blocking) transport.
/// Works over any ByteChannel — pipes, TCP sockets, or the fault-injecting
/// test shim; the fd constructor borrows the descriptor without owning it.
///
/// Hostile-peer hardening (the reader also faces real network peers now):
///  * a frame header advertising more than kMaxFramePayload marks the
///    stream corrupt before any allocation of the advertised size happens;
///  * the internal buffer never grows past one maximum frame — a peer
///    flooding bytes without ever completing a frame is detected as corrupt
///    instead of growing the buffer without bound (feed() stops reading
///    until the caller drains complete frames with next()).
class FrameReader {
 public:
  explicit FrameReader(int fd)
      : owned_(std::make_unique<netio::FdChannel>(fd, /*own=*/false)),
        chan_(owned_.get()) {}
  explicit FrameReader(netio::ByteChannel& chan) : chan_(&chan) {}

  enum class FeedStatus : std::uint8_t {
    Data,        ///< appended at least one byte (or the buffer is full)
    WouldBlock,  ///< no data available right now (EAGAIN)
    Eof,         ///< peer closed its end
    Error,       ///< read failed; errno in `err`
  };

  /// One channel read into the buffer (EINTR restarts internally — an
  /// interrupted read is retried, never reported as peer death).
  FeedStatus feed(int& err);

  /// Extracts the next complete frame. False when the buffer holds only a
  /// partial frame (feed more) or the stream is corrupt (check corrupt()).
  bool next(std::uint8_t& type, std::string& payload);

  /// True once a frame header advertised an impossible payload length. The
  /// stream is unrecoverable; the owner should treat the peer as dead.
  bool corrupt() const { return corrupt_; }

  int fd() const { return chan_->poll_fd(); }

 private:
  std::unique_ptr<netio::ByteChannel> owned_;  // fd constructor only
  netio::ByteChannel* chan_;
  std::string buf_;
  bool corrupt_ = false;
};

/// What read_frame found.
enum class ReadStatus : std::uint8_t {
  Frame,  ///< a complete frame was extracted
  Idle,   ///< no complete frame arrived within the timeout
  Lost,   ///< EOF, read error, closed channel, or a corrupt stream
};

/// Extracts the next complete frame from `reader`, polling its channel up
/// to `timeout_ms` for more bytes (0 = only what is readable now). Works on
/// blocking and non-blocking channels alike. An interrupted poll (EINTR)
/// reports Idle so the caller can re-check its stop conditions.
ReadStatus read_frame(FrameReader& reader, int timeout_ms, std::uint8_t& type,
                      std::string& payload);

/// Forks a child that runs `child_main(command_fd, result_fd)` and _exits
/// with its return value — the child never returns into the caller's stack
/// (no destructors, no test-framework teardown, no double-flushed stdio).
/// The child inherits every other descriptor; child_main closes what it
/// must not hold (a sibling worker's ends, typically). On success fills
/// `out` with the parent-side ends and returns 0; on failure returns errno.
struct ChildHandles {
  pid_t pid = -1;
  int command_fd = -1;  ///< parent writes commands here
  int result_fd = -1;   ///< parent reads results here
};
int spawn(const std::function<int(int command_fd, int result_fd)>& child_main,
          ChildHandles& out);

/// waitpid(WNOHANG) wrapper: 1 = reaped into `status`, 0 = still running,
/// -1 = error (e.g. ECHILD). Restarts on EINTR.
int try_wait(pid_t pid, int& status);

/// Blocking waitpid. Returns 0 on success (status filled) or errno.
int wait_blocking(pid_t pid, int& status);

/// True when the status is a normal exit with code 0.
bool exited_cleanly(int status);

/// One-token description of a wait status, journal-safe by construction:
/// "exit_0", "signal_9_Killed", "signal_11_Segmentation_fault", ...
std::string describe_wait_status(int status);

/// Milliseconds of steady-clock time — the supervisor's single time source
/// for heartbeat and deadline arithmetic.
std::uint64_t steady_now_ms();

}  // namespace motsim::subprocess
