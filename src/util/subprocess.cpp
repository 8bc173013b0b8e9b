#include "util/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace motsim::subprocess {

int set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno;
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return errno;
  return 0;
}

int make_pipe(Pipe& p) {
  int fds[2];
  if (::pipe(fds) != 0) return errno;
  p.read_fd = fds[0];
  p.write_fd = fds[1];
  return 0;
}

namespace {

/// write() the whole buffer, restarting on EINTR. Returns 0 or errno; a
/// zero-byte write on a pipe cannot happen for non-empty buffers, but is
/// mapped to EIO defensively rather than looping forever.
int write_exact(int fd, const char* data, std::size_t len) {
  std::size_t done = 0;
  int zero_writes = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      zero_writes = 0;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      if (++zero_writes >= 8) return EIO;
      continue;
    }
    return errno != 0 ? errno : EIO;
  }
  return 0;
}

}  // namespace

namespace {

/// Builds the wire bytes of one frame: type byte, LE32 length, payload.
std::string frame_bytes(std::uint8_t type, std::string_view payload) {
  std::string buf;
  buf.reserve(kFrameHeaderBytes + payload.size());
  buf.push_back(static_cast<char>(type));
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((len >> (8 * i)) & 0xffu));
  }
  buf.append(payload);
  return buf;
}

}  // namespace

int write_frame(netio::ByteChannel& chan, std::uint8_t type,
                std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return EMSGSIZE;
  const std::string buf = frame_bytes(type, payload);
  std::size_t done = 0;
  int zero_writes = 0;
  while (done < buf.size()) {
    int err = 0;
    const ssize_t n = chan.write(buf.data() + done, buf.size() - done, err);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      zero_writes = 0;
      continue;
    }
    if (n < 0 && err == EINTR) continue;  // interrupted, not dead: retry
    if (n == 0) {
      if (++zero_writes >= 8) return EIO;
      continue;
    }
    return err != 0 ? err : EIO;
  }
  return 0;
}

int write_frame(int fd, std::uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) return EMSGSIZE;
  const std::string buf = frame_bytes(type, payload);
  return write_exact(fd, buf.data(), buf.size());
}

FrameReader::FeedStatus FrameReader::feed(int& err) {
  err = 0;
  // Backpressure against a flooding peer: never buffer more than one
  // maximum-size frame. At this size the buffer either contains a complete
  // frame (the caller must drain it with next()) or a header advertising an
  // impossible length (next() flags corruption) — reading further could
  // only grow the buffer without bound.
  if (buf_.size() >= kFrameHeaderBytes + kMaxFramePayload) {
    return FeedStatus::Data;
  }
  char chunk[4096];
  while (true) {
    const ssize_t n = chan_->read(chunk, sizeof(chunk), err);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      err = 0;
      return FeedStatus::Data;
    }
    if (n == 0) return FeedStatus::Eof;
    if (err == EINTR) continue;  // interrupted, not dead: retry the read
    if (err == EAGAIN || err == EWOULDBLOCK) {
      err = 0;
      return FeedStatus::WouldBlock;
    }
    return FeedStatus::Error;
  }
}

bool FrameReader::next(std::uint8_t& type, std::string& payload) {
  if (corrupt_ || buf_.size() < kFrameHeaderBytes) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf_[1 + i]))
           << (8 * i);
  }
  if (len > kMaxFramePayload) {
    corrupt_ = true;
    return false;
  }
  const std::size_t total = kFrameHeaderBytes + len;
  if (buf_.size() < total) return false;
  type = static_cast<std::uint8_t>(buf_[0]);
  payload.assign(buf_, kFrameHeaderBytes, len);
  buf_.erase(0, total);
  return true;
}

ReadStatus read_frame(FrameReader& reader, int timeout_ms, std::uint8_t& type,
                      std::string& payload) {
  while (true) {
    if (reader.next(type, payload)) return ReadStatus::Frame;
    if (reader.corrupt() || reader.fd() < 0) return ReadStatus::Lost;
    struct pollfd p = {reader.fd(), POLLIN, 0};
    const int r = ::poll(&p, 1, timeout_ms);
    if (r < 0 && errno != EINTR) return ReadStatus::Lost;
    if (r <= 0) return ReadStatus::Idle;
    int err = 0;
    switch (reader.feed(err)) {
      case FrameReader::FeedStatus::Data:
        continue;
      case FrameReader::FeedStatus::WouldBlock:
        return ReadStatus::Idle;
      case FrameReader::FeedStatus::Eof:
      case FrameReader::FeedStatus::Error:
        return ReadStatus::Lost;
    }
  }
}

int spawn(const std::function<int(int command_fd, int result_fd)>& child_main,
          ChildHandles& out) {
  Pipe down;  // parent -> child commands
  Pipe up;    // child -> parent results
  int err = make_pipe(down);
  if (err != 0) return err;
  if ((err = make_pipe(up)) != 0) {
    ::close(down.read_fd);
    ::close(down.write_fd);
    return err;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    err = errno;
    ::close(down.read_fd);
    ::close(down.write_fd);
    ::close(up.read_fd);
    ::close(up.write_fd);
    return err;
  }
  if (pid == 0) {
    // Child. Shed the parent-side ends, then run and _exit — no unwinding
    // back into the forked copy of the caller.
    ::close(down.write_fd);
    ::close(up.read_fd);
    int rc = 127;
    try {
      rc = child_main(down.read_fd, up.write_fd);
    } catch (...) {
      rc = 125;
    }
    ::_exit(rc);
  }
  // Parent.
  ::close(down.read_fd);
  ::close(up.write_fd);
  out.pid = pid;
  out.command_fd = down.write_fd;
  out.result_fd = up.read_fd;
  return 0;
}

int try_wait(pid_t pid, int& status) {
  while (true) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return 1;
    if (r == 0) return 0;
    if (errno == EINTR) continue;
    return -1;
  }
}

int wait_blocking(pid_t pid, int& status) {
  while (true) {
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r == pid) return 0;
    if (errno == EINTR) continue;
    return errno;
  }
}

bool exited_cleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exit_" + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    std::string out = "signal_" + std::to_string(sig);
    if (const char* name = ::strsignal(sig); name != nullptr) {
      out.push_back('_');
      for (const char* p = name; *p != '\0'; ++p) {
        out.push_back(*p == ' ' ? '_' : *p);
      }
    }
    return out;
  }
  return "status_" + std::to_string(status);
}

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace motsim::subprocess
