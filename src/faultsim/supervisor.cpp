#include "faultsim/supervisor.hpp"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "faultsim/checkpoint.hpp"
#include "faultsim/remote.hpp"
#include "faultsim/shard.hpp"
#include "util/socket.hpp"
#include "util/subprocess.hpp"

namespace motsim {

namespace sp = subprocess;

namespace {

constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

/// How long a new channel has to present its Hello.
constexpr std::uint64_t kHandshakeMs = 5000;

/// Coordinator-side view of one worker slot. Every worker, forked or TCP,
/// sits behind a ByteChannel that passed the handshake; a forked worker
/// also has a pid, kept only for SIGKILL and waitpid. Everything else —
/// assignment, outstanding-fault accounting, liveness timestamps,
/// incarnation fencing — is transport-agnostic.
struct Slot {
  pid_t pid = -1;
  std::unique_ptr<netio::ByteChannel> chan;
  std::unique_ptr<sp::FrameReader> reader;
  bool alive = false;
  std::size_t incarnation = 0;  // lives started on this slot so far
  std::vector<std::size_t> group;            // current assignment, in order
  std::unordered_set<std::size_t> outstanding;  // not yet committed
  std::size_t in_flight = kNoFault;
  std::uint64_t last_frame_ms = 0;
  std::uint64_t group_assigned_ms = 0;
  bool shutdown_sent = false;
  bool respawn_pending = false;
  std::uint64_t respawn_at_ms = 0;

  bool idle() const { return alive && group.empty(); }
};

/// A channel not yet welcomed into a slot: an accepted TCP connection, or
/// a child forked for `slot`. It has until `deadline_ms` to present a valid
/// Hello.
struct PendingConn {
  std::unique_ptr<netio::ByteChannel> chan;
  std::unique_ptr<sp::FrameReader> reader;
  std::uint64_t deadline_ms = 0;
  std::size_t slot = kNoFault;  // kNoFault = accepted socket, any free slot
  pid_t pid = -1;
};

/// Waits for a forked worker, SIGKILLing it first when `kill`. Returns the
/// wait status and clears `pid`.
int reap(pid_t& pid, bool kill) {
  if (kill) ::kill(pid, SIGKILL);
  int status = 0;
  sp::wait_blocking(pid, status);
  pid = -1;
  return status;
}

}  // namespace

std::string worker_shard_path(const std::string& journal_path,
                              std::size_t slot) {
  if (journal_path.empty()) return {};
  return journal_path + ".w" + std::to_string(slot);
}

SupervisedMotRunner::SupervisedMotRunner(const Circuit& c, MotOptions options,
                                         bool run_baseline,
                                         SupervisorOptions sup)
    : circuit_(&c),
      options_(options),
      run_baseline_(run_baseline),
      sup_(sup) {}

std::vector<MotBatchItem> SupervisedMotRunner::run(
    const TestSequence& test, const SeqTrace& good,
    const std::vector<Fault>& faults, std::span<const std::size_t> indices,
    CampaignJournal* journal, const CancelToken* cancel,
    SupervisorStats* stats) const {
  SupervisorStats local;
  if (stats == nullptr) stats = &local;
  std::vector<MotBatchItem> items(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    items[i].fault_index = indices[i];
  }
  if (indices.empty()) return items;

  const std::size_t workers = std::max<std::size_t>(sup_.workers, 1);
  const std::string jpath = journal != nullptr ? journal->path() : "";
  const bool remote = sup_.listen_fd >= 0;
  // The campaign identity every worker must prove in its Hello; a forked
  // worker sends it verbatim. With a journal this is its meta verbatim;
  // without one it is assembled from the same ingredients, so the two modes
  // admit exactly the same workers.
  const JournalMeta expected_meta =
      journal != nullptr ? journal->meta()
                         : make_journal_meta(circuit_->name(), faults.size(),
                                             test, options_, run_baseline_);

  // A worker writing into a vanished coordinator (or vice versa) must see
  // EPIPE, not die of SIGPIPE mid-supervision.
  struct sigaction ignore_pipe = {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction old_pipe = {};
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  std::unordered_map<std::size_t, std::size_t> pos;
  pos.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) pos[indices[i]] = i;

  std::vector<char> done(indices.size(), 0);
  auto commit = [&](const MotBatchItem& item) {
    const auto it = pos.find(item.fault_index);
    if (it == pos.end() || done[it->second]) return false;
    items[it->second] = item;
    done[it->second] = 1;
    if (journal != nullptr) journal->append(item);
    return true;
  };

  // Resume: outcomes the journal already holds are merged, never re-run.
  std::vector<std::size_t> pending;
  pending.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t k = indices[i];
    if (journal != nullptr) {
      if (const MotBatchItem* rec = journal->lookup(k)) {
        items[i] = *rec;
        done[i] = 1;
        continue;
      }
    }
    pending.push_back(k);
  }

  // Harvest orphaned journal shards from a previous run whose coordinator
  // died: every record a worker committed before the lights went out is
  // merged into the main journal now, before any simulation.
  if (journal != nullptr && !pending.empty()) {
    const std::size_t slash = jpath.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : jpath.substr(0, slash);
    const std::string prefix =
        (slash == std::string::npos ? jpath : jpath.substr(slash + 1)) + ".w";
    std::vector<std::string> orphans;
    if (DIR* d = ::opendir(dir.c_str())) {
      while (const struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.size() <= prefix.size() ||
            name.compare(0, prefix.size(), prefix) != 0) {
          continue;
        }
        const std::string tail = name.substr(prefix.size());
        if (tail.find_first_not_of("0123456789") != std::string::npos) continue;
        orphans.push_back(dir + "/" + name);
      }
      ::closedir(d);
    }
    for (const std::string& orphan : orphans) {
      std::string err;
      const auto shard_journal =
          CampaignJournal::open_resume(orphan, journal->meta(), err);
      if (shard_journal == nullptr) continue;  // stale or foreign; overwritten
      for (const std::size_t k : pending) {
        if (const MotBatchItem* rec = shard_journal->lookup(k)) {
          if (commit(*rec)) ++stats->harvested_records;
        }
      }
    }
    std::erase_if(pending, [&](std::size_t k) { return done[pos[k]]; });
  }

  std::deque<std::vector<std::size_t>> queue;
  for (auto& g : shard::plan_fault_groups(pending, workers, sup_.group_size)) {
    queue.push_back(std::move(g));
  }

  const Deadline campaign = Deadline::after_ms(options_.campaign_time_ms);
  std::unordered_map<std::size_t, std::size_t> attempts;
  std::vector<Slot> slots(workers);
  std::vector<PendingConn> pending_conns;
  std::size_t restarts_used = 0;
  RetrySchedule restart_schedule(sup_.restart_backoff);
  bool stopping = false;
  std::uint64_t stop_deadline_ms = 0;
  // Remote fleet-loss clock: while no worker is connected, the campaign is
  // declared lost once this passes. Starts as the join window; every
  // disconnect pushes it out by the rejoin window.
  std::uint64_t fleet_deadline_ms = sp::steady_now_ms() + sup_.remote_join_ms;
  if (remote) sp::set_nonblocking(sup_.listen_fd);
  const std::uint64_t heartbeat_period_ms =
      sup_.heartbeat_ms == 0
          ? 0
          : std::max<std::uint64_t>(sup_.heartbeat_ms / 4, 20);

  // A forked worker serves the coordinator's own pipeline, reached through
  // fork's copy-on-write pages (nothing is serialized), and its chaos kills
  // are real SIGKILLs.
  RemoteWorkerOptions fork_opts;
  fork_opts.chaos_kill_permille = sup_.chaos_kill_permille;
  fork_opts.chaos_kill_seed = sup_.chaos_kill_seed;
  fork_opts.chaos_abort_fault = sup_.chaos_abort_fault;
  fork_opts.chaos_die_hard = true;

  /// Forks a worker for slot `s`. It joins the slot through the same
  /// Hello/Welcome handshake as a TCP worker.
  auto spawn_slot = [&](std::size_t s) {
    const std::string shard_path = worker_shard_path(jpath, s);
    sp::ChildHandles child;
    // The child runs after fork and must never return into the forked copy
    // of the coordinator's stack (spawn() _exits with the return value).
    const int err = sp::spawn(
        [&](int cmd_fd, int res_fd) {
          // Drop the inherited coordinator ends of every sibling: holding
          // them would delay that sibling's EOF-based death detection.
          for (Slot& other : slots) {
            if (other.chan != nullptr) other.chan->close();
          }
          for (PendingConn& other : pending_conns) {
            if (other.chan != nullptr) other.chan->close();
          }
          // The coordinator owns terminal signals; a Ctrl-C must stop the
          // campaign through the coordinator's clean-shutdown path, not kill
          // workers ahead of their final results. SIGTERM drops any handler
          // inherited from the CLI (whose CancelToken means nothing here).
          // SIGPIPE on a dead coordinator becomes EPIPE, which ends the
          // session.
          ::signal(SIGINT, SIG_IGN);
          ::signal(SIGTERM, SIG_DFL);
          ::signal(SIGPIPE, SIG_IGN);
          const WorkerSession session(*circuit_, options_, run_baseline_, test,
                                      good, faults, expected_meta, fork_opts);
          // Shard journaling is belt-and-braces on top of the pipe; a worker
          // that cannot create its shard still contributes via frames alone.
          std::unique_ptr<CampaignJournal> shard_journal;
          if (!shard_path.empty()) {
            std::string jerr;
            shard_journal =
                CampaignJournal::create(shard_path, expected_meta, jerr);
          }
          netio::FdChannel chan(cmd_fd, res_fd);
          RemoteWorkerReport report;
          std::string why;
          session.serve(
              chan, {},
              [&](const MotBatchItem& item, const std::string&) {
                if (shard_journal) shard_journal->append(item);
              },
              report, why);
          return 0;
        },
        child);
    if (err != 0) return false;
    sp::set_nonblocking(child.result_fd);
    PendingConn pc;
    pc.chan = std::make_unique<netio::FdChannel>(child.result_fd,
                                                 child.command_fd);
    pc.reader = std::make_unique<sp::FrameReader>(*pc.chan);
    pc.deadline_ms = sp::steady_now_ms() + kHandshakeMs;
    pc.slot = s;
    pc.pid = child.pid;
    pending_conns.push_back(std::move(pc));
    return true;
  };

  auto hang_up = [&](Slot& slot) {
    slot.alive = false;
    slot.reader.reset();  // before the channel it reads from
    slot.chan.reset();
  };

  auto slot_write = [&](Slot& slot, shard::MsgType type,
                        std::string_view payload) {
    return sp::write_frame(*slot.chan, static_cast<std::uint8_t>(type),
                           payload);
  };

  auto assign_group = [&](Slot& slot, std::vector<std::size_t> group) {
    slot.group = std::move(group);
    slot.outstanding.clear();
    slot.outstanding.insert(slot.group.begin(), slot.group.end());
    slot.in_flight = kNoFault;
    slot.group_assigned_ms = sp::steady_now_ms();
    // A failed write means the worker is dying or dead; the reap path
    // recovers the group.
    slot_write(slot, shard::MsgType::Assign, shard::encode_assign(slot.group));
  };

  /// Shared recovery path for every kind of worker death. `status_token`
  /// is the one-token evidence (wait status and/or supervision cause)
  /// recorded against a fault this death poisons.
  auto handle_death = [&](std::size_t s, const std::string& status_token) {
    Slot& slot = slots[s];
    hang_up(slot);
    ++stats->worker_deaths;

    // Harvest the shard journal first: results the worker committed to disk
    // but never got to stream are merged, not re-simulated. (TCP workers
    // write no shard here — their equivalent is the in-memory replay log
    // they re-stream after reconnecting.)
    const std::string shard_path = worker_shard_path(jpath, s);
    if (!shard_path.empty() && !slot.outstanding.empty()) {
      std::string err;
      if (const auto shard_journal =
              CampaignJournal::open_resume(shard_path, journal->meta(), err)) {
        for (const std::size_t k : slot.group) {
          if (slot.outstanding.count(k) == 0) continue;
          if (const MotBatchItem* rec = shard_journal->lookup(k)) {
            if (commit(*rec)) ++stats->harvested_records;
            slot.outstanding.erase(k);
            if (slot.in_flight == k) slot.in_flight = kNoFault;
          }
        }
      }
    }

    // Charge the death to the fault that was in flight — and only to it.
    if (slot.in_flight != kNoFault &&
        slot.outstanding.count(slot.in_flight) != 0) {
      const std::size_t k = slot.in_flight;
      const std::size_t tries = ++attempts[k];
      if (tries >= sup_.max_fault_attempts) {
        MotBatchItem poison;
        poison.fault_index = k;
        poison.completed = true;
        poison.mot.unresolved = UnresolvedReason::EngineError;
        poison.error = sanitize_token("worker_killed_" + status_token +
                                      "_attempts_" + std::to_string(tries));
        if (run_baseline_) {
          poison.baseline.aborted = true;
          poison.baseline.unresolved = UnresolvedReason::EngineError;
        }
        commit(poison);
        ++stats->poisoned_faults;
        slot.outstanding.erase(k);
      }
    }

    // Requeue the rest of the group (input order preserved) for survivors.
    std::vector<std::size_t> requeue;
    for (const std::size_t k : slot.group) {
      if (slot.outstanding.count(k) != 0) requeue.push_back(k);
    }
    if (!requeue.empty()) {
      stats->requeued_faults += requeue.size();
      queue.push_front(std::move(requeue));
    }
    slot.group.clear();
    slot.outstanding.clear();
    slot.in_flight = kNoFault;

    if (!stopping) {
      if (!remote && restarts_used < sup_.max_worker_restarts) {
        ++restarts_used;
        slot.respawn_pending = true;
        slot.respawn_at_ms =
            sp::steady_now_ms() +
            restart_schedule.delay_us(restarts_used) / 1000;
      }
      if (remote) {
        // Hold the campaign open for a reconnect: the worker (or a fresh
        // one) may rejoin within the window. Admission charges the restart
        // budget; this only keeps the door open.
        fleet_deadline_ms =
            std::max(fleet_deadline_ms,
                     sp::steady_now_ms() + sup_.remote_rejoin_ms);
      }
    }
  };

  /// Ends a worker that is still running. A forked worker is SIGKILLed and
  /// reaped. There is no SIGKILL across a network: closing the connection
  /// *is* the kill. It fences this incarnation off — its late frames land
  /// on a closed socket — and the worker, if actually alive, rejoins as a
  /// fresh incarnation through the handshake.
  auto kill_and_reap = [&](std::size_t s, const char* cause) {
    Slot& slot = slots[s];
    const std::string evidence =
        slot.pid >= 0
            ? sp::describe_wait_status(reap(slot.pid, /*kill=*/true))
            : "fenced";
    handle_death(s, std::string(cause) + "_" + evidence);
  };

  /// A worker is gone. During teardown that is the expected goodbye, and so
  /// is a clean process exit with nothing outstanding; anything else is a
  /// death — a vanished TCP worker too, even an idle one, so that the
  /// rejoin window opens and the stats show it.
  auto settle = [&](std::size_t s, bool clean, const std::string& cause) {
    if (stopping || (clean && slots[s].outstanding.empty())) {
      hang_up(slots[s]);
    } else {
      handle_death(s, cause);
    }
  };

  /// A worker's stream ended (EOF, read error, corruption).
  auto on_hangup = [&](std::size_t s) {
    Slot& slot = slots[s];
    if (slot.pid < 0) {
      settle(s, false, "disconnect");
      return;
    }
    const int status = reap(slot.pid, /*kill=*/false);
    settle(s, sp::exited_cleanly(status), sp::describe_wait_status(status));
  };

  auto request_shutdown = [&](Slot& slot) {
    if (!slot.alive || slot.shutdown_sent) return;
    slot.shutdown_sent = true;
    slot_write(slot, shard::MsgType::Shutdown, "");
  };

  /// Turns a channel away: a Reject carrying `reason` (none when empty),
  /// then a hang-up. A child forked for a slot is also killed and reaped,
  /// and mid-campaign its slot recovers like any other death.
  auto drop_conn = [&](PendingConn& pc, std::string_view reason) {
    if (!reason.empty()) {
      sp::write_frame(*pc.chan,
                      static_cast<std::uint8_t>(shard::MsgType::Reject),
                      reason);
    }
    pc.reader.reset();
    pc.chan.reset();
    if (pc.pid < 0) return;
    const int status = reap(pc.pid, /*kill=*/true);
    if (!stopping) {
      handle_death(pc.slot, "handshake_" + sp::describe_wait_status(status));
    }
  };

  /// Welcomes a handshaken channel into a worker slot: a forked child into
  /// the slot it was forked for, a TCP worker into any free slot. First
  /// lives of a slot are free (they are the initial fleet); a TCP worker
  /// re-filling a used slot is a restart and spends the max_worker_restarts
  /// budget like a local respawn (which is charged when it is scheduled).
  auto admit_conn = [&](PendingConn& pc) {
    std::size_t chosen = pc.slot;
    if (chosen == kNoFault) {
      bool rejoin = false;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].alive && slots[s].incarnation == 0) {
          chosen = s;
          break;
        }
      }
      if (chosen == kNoFault) {
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (!slots[s].alive) {
            chosen = s;
            rejoin = true;
            break;
          }
        }
      }
      if (chosen == kNoFault) {
        // Transient by design: the worker retries after backoff, by which
        // time the dead incarnation's EOF has usually been processed.
        drop_conn(pc, "no_free_slot");
        return;
      }
      if (rejoin) {
        if (restarts_used >= sup_.max_worker_restarts) {
          drop_conn(pc, "restart_budget_spent");
          return;
        }
        ++restarts_used;
        ++stats->worker_restarts;
      }
    }
    Slot& slot = slots[chosen];
    shard::WelcomeInfo info;
    info.slot = chosen;
    info.incarnation = slot.incarnation;
    info.heartbeat_period_ms = heartbeat_period_ms;
    if (sp::write_frame(*pc.chan,
                        static_cast<std::uint8_t>(shard::MsgType::Welcome),
                        shard::encode_welcome(info)) != 0) {
      drop_conn(pc, "");
      return;
    }
    ++slot.incarnation;
    slot.pid = pc.pid;
    pc.pid = -1;
    slot.chan = std::move(pc.chan);
    slot.reader = std::move(pc.reader);
    slot.alive = true;
    slot.group.clear();
    slot.outstanding.clear();
    slot.in_flight = kNoFault;
    slot.shutdown_sent = false;
    slot.respawn_pending = false;
    slot.last_frame_ms = sp::steady_now_ms();
  };

  /// Accepts fresh connections and advances every pending handshake. A
  /// channel becomes a worker only through a Hello whose meta matches this
  /// campaign exactly.
  auto serve_handshakes = [&] {
    while (remote) {
      int aerr = 0;
      const int cfd = netio::tcp_accept(sup_.listen_fd, aerr);
      if (cfd < 0) break;  // EAGAIN (nothing pending) or a transient error
      if (pending_conns.size() >= 64) {
        ::close(cfd);  // flood guard: the worker retries with backoff
        continue;
      }
      auto ch = std::make_unique<netio::SocketChannel>(cfd);
      ch->set_nonblocking();
      PendingConn pc;
      pc.reader = std::make_unique<sp::FrameReader>(*ch);
      pc.chan = std::move(ch);
      pc.deadline_ms = sp::steady_now_ms() + kHandshakeMs;
      pending_conns.push_back(std::move(pc));
    }
    for (auto it = pending_conns.begin(); it != pending_conns.end();) {
      PendingConn& pc = *it;
      std::uint8_t type = 0;
      std::string payload;
      sp::ReadStatus r = sp::ReadStatus::Frame;
      // Pre-Hello noise is skipped; the deadline bounds patience.
      while ((r = sp::read_frame(*pc.reader, 0, type, payload)) ==
                 sp::ReadStatus::Frame &&
             static_cast<shard::MsgType>(type) != shard::MsgType::Hello) {
      }
      if (r == sp::ReadStatus::Frame) {
        JournalMeta hello_meta;
        if (!shard::decode_hello(payload, hello_meta) ||
            !(hello_meta == expected_meta)) {
          drop_conn(pc, "campaign_mismatch");
        } else if (stopping) {
          drop_conn(pc, "stopping");
        } else {
          admit_conn(pc);
        }
      } else if (r == sp::ReadStatus::Lost ||
                 sp::steady_now_ms() >= pc.deadline_ms) {
        drop_conn(pc, "");  // gone, or never said Hello: not a worker
      } else {
        ++it;
        continue;
      }
      it = pending_conns.erase(it);
    }
  };

  /// Drains and dispatches every complete frame from one worker. Returns
  /// false when the stream ended (EOF/error/corruption) — worker death.
  auto drain_frames = [&](std::size_t s) {
    Slot& slot = slots[s];
    std::uint8_t type = 0;
    std::string payload;
    while (true) {
      const sp::ReadStatus r = sp::read_frame(*slot.reader, 0, type, payload);
      if (r != sp::ReadStatus::Frame) return r == sp::ReadStatus::Idle;
      slot.last_frame_ms = sp::steady_now_ms();
      switch (static_cast<shard::MsgType>(type)) {
        case shard::MsgType::FaultStart: {
          std::size_t k = kNoFault;
          if (shard::decode_fault_start(payload, k)) slot.in_flight = k;
          break;
        }
        case shard::MsgType::FaultResult: {
          MotBatchItem item;
          if (decode_journal_record(payload, run_baseline_, item)) {
            commit(item);
            slot.outstanding.erase(item.fault_index);
            if (slot.in_flight == item.fault_index) slot.in_flight = kNoFault;
          }
          break;
        }
        case shard::MsgType::GroupDone:
          // Defensive: anything the worker skipped goes back to the pool.
          if (!slot.outstanding.empty()) {
            std::vector<std::size_t> leftover;
            for (const std::size_t k : slot.group) {
              if (slot.outstanding.count(k) != 0) leftover.push_back(k);
            }
            queue.push_front(std::move(leftover));
          }
          slot.group.clear();
          slot.outstanding.clear();
          slot.in_flight = kNoFault;
          break;
        default:
          break;  // Heartbeat: the timestamp above is all it carries
      }
    }
  };

  // Initial fleet: one forked worker per slot, capped by the number of
  // groups — idle processes would only dilute the kill/restart accounting.
  // With a listener nothing is forked: slots fill as workers connect.
  if (!remote) {
    const std::size_t initial = std::min(workers, queue.size());
    for (std::size_t s = 0; s < initial; ++s) spawn_slot(s);
  }

  // ------------------------- supervision loop -------------------------
  while (true) {
    const std::uint64_t now = sp::steady_now_ms();

    if (!stopping &&
        ((cancel != nullptr && cancel->cancelled()) || campaign.expired() ||
         (journal != nullptr && journal->failed()))) {
      stopping = true;
      stop_deadline_ms = now + sup_.shutdown_grace_ms;
      for (Slot& slot : slots) request_shutdown(slot);
    }

    bool any_live = false;
    bool any_busy = false;
    bool any_joining = false;  // a forked worker is on its way
    for (const Slot& slot : slots) {
      any_live |= slot.alive;
      any_busy |= slot.alive && !slot.group.empty();
      any_joining |= slot.respawn_pending;
    }
    for (const PendingConn& pc : pending_conns) any_joining |= pc.pid >= 0;

    if (!stopping) {
      if (queue.empty() && !any_busy) break;  // campaign complete
      if (!remote && !any_live && !any_joining) {
        // Every worker is dead and the restart budget is spent: surrender
        // the remainder as incomplete (resumable), never hang.
        for (const auto& g : queue) stats->lost_faults += g.size();
        break;
      }
      if (remote && !any_live && now >= fleet_deadline_ms) {
        // No worker connected within the join window (or reconnected within
        // the rejoin window): the fleet is lost; same surrender as above.
        for (const auto& g : queue) stats->lost_faults += g.size();
        break;
      }
    } else {
      if (!any_live || now >= stop_deadline_ms) break;
    }

    // Respawns that have served their backoff, then admissions, then
    // stealing — so a worker that joined this very tick can claim work this
    // very tick.
    if (!stopping) {
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].respawn_pending || now < slots[s].respawn_at_ms) {
          continue;
        }
        slots[s].respawn_pending = false;
        if (queue.empty() && !any_busy) continue;  // nothing left to do
        if (spawn_slot(s)) ++stats->worker_restarts;
      }
    }
    serve_handshakes();
    if (!stopping) {
      // Work stealing: idle survivors immediately claim requeued groups.
      for (Slot& slot : slots) {
        if (queue.empty()) break;
        if (!slot.idle()) continue;
        assign_group(slot, std::move(queue.front()));
        queue.pop_front();
      }
    }

    // Wait for worker traffic or a forked worker's Hello (bounded so
    // timeouts and respawns progress). A spawn or respawn is thus admitted
    // as soon as its Hello arrives. TCP handshakes advance on the tick: a
    // fleet that connects together is admitted together, so a campaign
    // shorter than the fleet's connect spread still sees every worker.
    std::vector<struct pollfd> fds;
    std::vector<std::size_t> fd_slot;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].alive) continue;
      fds.push_back({slots[s].reader->fd(), POLLIN, 0});
      fd_slot.push_back(s);
    }
    for (const PendingConn& pc : pending_conns) {
      if (pc.pid >= 0) fds.push_back({pc.reader->fd(), POLLIN, 0});
    }
    const int r = ::poll(fds.data(), fds.size(), fds.empty() ? 5 : 20);
    if (r < 0 && errno != EINTR) break;  // coordinator fd table is broken

    // Frames, then reaping: a worker that exited cleanly after streaming
    // its last result must have that result committed before the reap.
    for (std::size_t f = 0; f < fd_slot.size(); ++f) {
      const std::size_t s = fd_slot[f];
      if (!slots[s].alive) continue;
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!drain_frames(s)) on_hangup(s);
    }
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (!slots[s].alive || slots[s].pid < 0) continue;
      int status = 0;
      if (sp::try_wait(slots[s].pid, status) == 1) {
        slots[s].pid = -1;
        drain_frames(s);  // final pipe contents survive the process
        settle(s, sp::exited_cleanly(status), sp::describe_wait_status(status));
      }
    }

    // Liveness policing: heartbeat gaps and shard deadlines.
    const std::uint64_t policed = sp::steady_now_ms();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.alive) continue;
      if (sup_.heartbeat_ms > 0 &&
          policed - slot.last_frame_ms > sup_.heartbeat_ms) {
        kill_and_reap(s, "heartbeat_timeout");
        continue;
      }
      if (sup_.shard_deadline_ms > 0 && !slot.group.empty() &&
          policed - slot.group_assigned_ms > sup_.shard_deadline_ms) {
        kill_and_reap(s, "shard_deadline");
      }
    }
  }

  // Teardown: ask politely, then insist. Every result already streamed is
  // committed; workers that ignore Shutdown past the grace are SIGKILLed
  // (forked) or hung up on (TCP). A TCP worker acknowledges Shutdown by
  // closing its end.
  for (Slot& slot : slots) request_shutdown(slot);
  const std::uint64_t teardown_deadline =
      sp::steady_now_ms() + sup_.shutdown_grace_ms;
  while (true) {
    bool any_live = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      Slot& slot = slots[s];
      if (!slot.alive) continue;
      int status = 0;
      if (!drain_frames(s)) {
        if (slot.pid >= 0) reap(slot.pid, /*kill=*/false);
        hang_up(slot);
      } else if (slot.pid >= 0 && sp::try_wait(slot.pid, status) == 1) {
        slot.pid = -1;
        hang_up(slot);
      } else {
        any_live = true;
      }
    }
    if (!any_live) break;
    if (sp::steady_now_ms() >= teardown_deadline) {
      for (Slot& slot : slots) {
        if (!slot.alive) continue;
        if (slot.pid >= 0) reap(slot.pid, /*kill=*/true);
        hang_up(slot);
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Channels that never finished their handshake get a door shut, and a
  // child forked for one is killed and reaped. The listening fd stays open
  // — the caller owns it.
  for (PendingConn& pc : pending_conns) {
    pc.reader.reset();
    pc.chan.reset();
    if (pc.pid >= 0) reap(pc.pid, /*kill=*/true);
  }
  pending_conns.clear();

  // Shard files are fully merged into the main journal — retire them. If
  // the main journal failed mid-run they are the only durable copy of the
  // tail, so they are kept for the next resume's orphan harvest.
  if (journal != nullptr && !journal->failed()) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      const std::string shard_path = worker_shard_path(jpath, s);
      if (!shard_path.empty()) ::unlink(shard_path.c_str());
    }
  }

  // One outcome per requested fault, always: whatever was neither resumed,
  // simulated, harvested, nor poisoned comes back incomplete — the resume
  // path re-runs exactly these.
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (done[i]) continue;
    items[i].completed = false;
    items[i].mot = MotResult{};
    items[i].mot.unresolved = UnresolvedReason::Cancelled;
    if (run_baseline_) {
      items[i].baseline = BaselineResult{};
      items[i].baseline.unresolved = UnresolvedReason::Cancelled;
    }
  }

  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  return items;
}

}  // namespace motsim
