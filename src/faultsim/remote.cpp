#include "faultsim/remote.hpp"

#include <poll.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "faultsim/shard.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace motsim {

namespace sp = subprocess;

namespace {

/// Cancel-aware sleep in small poll slices (no signals: library code).
void sleep_ms(std::uint64_t ms, const CancelToken* cancel) {
  const std::uint64_t deadline = sp::steady_now_ms() + ms;
  while (sp::steady_now_ms() < deadline) {
    if (cancel != nullptr && cancel->cancelled()) return;
    const std::uint64_t left = deadline - sp::steady_now_ms();
    struct pollfd none = {-1, 0, 0};
    ::poll(&none, 0, static_cast<int>(std::min<std::uint64_t>(left, 50)));
  }
}

MotOptions serial(MotOptions options) {
  options.num_threads = 1;
  options.campaign_time_ms = 0;
  return options;
}

}  // namespace

WorkerSession::WorkerSession(const Circuit& c, MotOptions options,
                             bool run_baseline, const TestSequence& test,
                             const SeqTrace& good,
                             const std::vector<Fault>& faults,
                             const JournalMeta& meta,
                             const RemoteWorkerOptions& opts)
    : runner_(c, serial(options), run_baseline),
      test_(&test),
      good_(&good),
      faults_(&faults),
      run_baseline_(run_baseline),
      hello_(shard::encode_hello(meta)),
      opts_(opts) {}

SessionEnd WorkerSession::serve(netio::ByteChannel& chan,
                                std::span<const std::string> replay,
                                const RecordHook& on_record,
                                RemoteWorkerReport& report, std::string& why,
                                const CancelToken* cancel) const {
  auto cancelled = [&] { return cancel != nullptr && cancel->cancelled(); };
  sp::FrameReader reader(chan);
  std::uint8_t type = 0;
  std::string payload;

  // ---- handshake ------------------------------------------------------
  if (sp::write_frame(chan, static_cast<std::uint8_t>(shard::MsgType::Hello),
                      hello_) != 0) {
    why = "handshake write failed";
    return SessionEnd::Lost;
  }
  shard::WelcomeInfo welcome;
  why = "handshake timed out";
  const std::uint64_t deadline =
      sp::steady_now_ms() + opts_.handshake_timeout_ms;
  while (true) {
    if (cancelled()) return SessionEnd::Cancelled;
    if (sp::steady_now_ms() >= deadline) return SessionEnd::Lost;
    const sp::ReadStatus r = sp::read_frame(reader, 100, type, payload);
    if (r == sp::ReadStatus::Lost) return SessionEnd::Lost;
    if (r == sp::ReadStatus::Idle) continue;
    const auto mt = static_cast<shard::MsgType>(type);
    if (mt == shard::MsgType::Welcome) {
      if (shard::decode_welcome(payload, welcome)) break;
      why = "malformed welcome";
      return SessionEnd::Lost;
    }
    if (mt == shard::MsgType::Reject) {
      // "no_free_slot" is a race, not a verdict: the coordinator has not yet
      // noticed our previous incarnation's death. Every other reason (wrong
      // campaign, budget spent, campaign stopping) is authoritative.
      why = "rejected: " + payload;
      return payload == "no_free_slot" ? SessionEnd::Lost
                                       : SessionEnd::Rejected;
    }
    // Anything else before Welcome is ignored.
  }
  ++report.connections;
  why = "connection lost";

  // ---- admitted: heartbeats, replay, then serve -------------------------
  std::mutex write_mu;
  auto send = [&](shard::MsgType t, std::string_view body) {
    std::lock_guard<std::mutex> lk(write_mu);
    return sp::write_frame(chan, static_cast<std::uint8_t>(t), body);
  };

  std::atomic<bool> stop{false};
  std::mutex hb_mu;
  std::condition_variable hb_cv;
  std::thread heartbeat;
  if (welcome.heartbeat_period_ms > 0) {
    // Sleeps until the next beat is due instead of polling a short tick:
    // zero wakeups between beats, and the end of the session interrupts
    // the wait via the condition variable rather than waiting out the
    // period.
    heartbeat = std::thread([&] {
      const auto period =
          std::chrono::milliseconds(welcome.heartbeat_period_ms);
      std::unique_lock<std::mutex> lk(hb_mu);
      auto next = std::chrono::steady_clock::now() + period;
      while (!hb_cv.wait_until(lk, next, [&] {
        return stop.load(std::memory_order_relaxed);
      })) {
        if (send(shard::MsgType::Heartbeat, "") != 0) break;
        next = std::chrono::steady_clock::now() + period;
      }
    });
  }

  const SessionEnd end = [&] {
    // Replay first: anything this process already computed but the
    // coordinator may not have seen (the link died mid-stream). Duplicates
    // are dropped by the coordinator's idempotent commit.
    for (const std::string& record : replay) {
      if (send(shard::MsgType::FaultResult, record) != 0) {
        return SessionEnd::Lost;
      }
      ++report.replayed_records;
    }
    std::vector<std::size_t> group;
    while (true) {
      const sp::ReadStatus r = sp::read_frame(reader, 200, type, payload);
      if (r != sp::ReadStatus::Frame) {
        if (cancelled()) return SessionEnd::Cancelled;
        if (r == sp::ReadStatus::Lost) return SessionEnd::Lost;
        continue;
      }
      const auto mt = static_cast<shard::MsgType>(type);
      if (mt == shard::MsgType::Shutdown) return SessionEnd::Shutdown;
      if (mt != shard::MsgType::Assign) continue;  // never sent mid-serve
      if (!shard::decode_assign(payload, group)) {
        return SessionEnd::Lost;  // protocol violation: die visibly
      }
      for (const std::size_t k : group) {
        if (cancelled()) return SessionEnd::Cancelled;
        // Between-faults peek: a buffered Shutdown and a dead link are
        // different verdicts — Shutdown ends the campaign cleanly, a dead
        // link must put a TCP worker back on the reconnect path with its
        // replay log intact (mistaking EOF for Shutdown strands the
        // coordinator's rejoin window when this is the only worker).
        while (true) {
          const sp::ReadStatus peek = sp::read_frame(reader, 0, type, payload);
          if (peek == sp::ReadStatus::Idle) break;
          if (peek == sp::ReadStatus::Lost) return SessionEnd::Lost;
          if (static_cast<shard::MsgType>(type) == shard::MsgType::Shutdown) {
            return SessionEnd::Shutdown;
          }
        }
        if (send(shard::MsgType::FaultStart, shard::encode_fault_start(k)) !=
            0) {
          return SessionEnd::Lost;
        }
        // Chaos: die exactly where a crashing engine would — fault
        // announced, result not yet produced.
        if (k == opts_.chaos_abort_fault ||
            shard::chaos_should_kill(opts_.chaos_kill_seed, k,
                                     welcome.incarnation,
                                     opts_.chaos_kill_permille)) {
          if (opts_.chaos_die_hard) ::raise(SIGKILL);
          return SessionEnd::ChaosKilled;
        }
        const std::size_t one[] = {k};
        const std::vector<MotBatchItem> out =
            runner_.run(*test_, *good_, *faults_, one);
        ++report.faults_simulated;
        const std::string record = encode_journal_record(out[0], run_baseline_);
        on_record(out[0], record);
        if (send(shard::MsgType::FaultResult, record) != 0) {
          return SessionEnd::Lost;
        }
      }
      if (send(shard::MsgType::GroupDone, "") != 0) return SessionEnd::Lost;
    }
  }();

  {
    std::lock_guard<std::mutex> lk(hb_mu);
    stop.store(true, std::memory_order_relaxed);
  }
  hb_cv.notify_all();
  if (heartbeat.joinable()) heartbeat.join();
  return end;
}

int serve_remote_worker(const Circuit& c, MotOptions options, bool run_baseline,
                        const TestSequence& test, const SeqTrace& good,
                        const std::vector<Fault>& faults,
                        const RemoteWorkerOptions& opts,
                        RemoteWorkerReport* report, const CancelToken* cancel) {
  RemoteWorkerReport local_report;
  if (report == nullptr) report = &local_report;
  *report = RemoteWorkerReport{};

  const WorkerSession session(
      c, options, run_baseline, test, good, faults,
      make_journal_meta(c.name(), faults.size(), test, options, run_baseline),
      opts);

  // Journal records produced by this process, in production order. Replayed
  // after every reconnect; cleared only by an emulated chaos kill (a real
  // SIGKILL clears it by losing the process).
  std::vector<std::string> replay;
  const WorkerSession::RecordHook keep = [&](const MotBatchItem&,
                                             const std::string& record) {
    replay.push_back(record);
  };

  RetrySchedule backoff(opts.reconnect_backoff);
  std::size_t consecutive_failures = 0;
  auto connect_failed = [&](const std::string& why) {
    ++consecutive_failures;
    if (consecutive_failures >= opts.max_connect_attempts) {
      report->error = why;
      return true;
    }
    sleep_ms(backoff.delay_us(consecutive_failures) / 1000, cancel);
    return false;
  };

  while (true) {
    if (cancel != nullptr && cancel->cancelled()) {
      report->error = "cancelled";
      return kRemoteWorkerOk;
    }
    std::string why;
    const int fd =
        netio::tcp_connect(opts.host, opts.port, opts.connect_deadline_ms, why);
    if (fd < 0) {
      if (connect_failed("connect: " + why)) {
        return kRemoteWorkerTransportFailure;
      }
      continue;
    }
    netio::SocketChannel chan(fd);
    const std::size_t joined = report->connections;
    const SessionEnd end =
        session.serve(chan, replay, keep, *report, why, cancel);
    chan.close();
    if (report->connections > joined) consecutive_failures = 0;

    switch (end) {
      case SessionEnd::Shutdown:
        report->clean_shutdown = true;
        return kRemoteWorkerOk;
      case SessionEnd::Cancelled:
        report->error = "cancelled";
        return kRemoteWorkerOk;
      case SessionEnd::ChaosKilled:
        // Emulated SIGKILL: the "process" loses everything it knew and a
        // fresh one reconnects. The coordinator sees an abrupt disconnect
        // followed by a new incarnation — indistinguishable from the real
        // signal, minus the lost test binary.
        replay.clear();
        ++report->chaos_kills;
        continue;
      case SessionEnd::Rejected:
        report->error = why;
        return kRemoteWorkerTransportFailure;
      case SessionEnd::Lost:
        if (connect_failed(why)) return kRemoteWorkerTransportFailure;
        continue;
    }
  }
}

}  // namespace motsim
