// Shard protocol of the multi-process campaign runner.
//
// The supervisor (supervisor.hpp) and its workers — forked over a pipe
// pair or connected over TCP — speak one small message set over the
// length-prefixed frames of util/subprocess.hpp. This header pins down that
// protocol — message types, payload encodings, and the fault-group planner
// — separately from the supervision policy so the wire format is
// unit-testable without forking anything.
//
// Payloads are plain text. A FaultResult payload is *exactly* the journal-v2
// record line of the fault (encode_journal_record / decode_journal_record,
// checkpoint.hpp): the bytes a forked worker streams up the pipe are the
// bytes it appended to its own journal shard, so the coordinator's merge,
// the shard files, and the single-process journal all agree by
// construction — there is one serialization of a fault outcome in the
// system, not three.
//
// Message flow — a three-message handshake turns a fresh channel (a forked
// child's pipes or an accepted TCP connection) into a worker slot, then
// the worker serves fault groups:
//
//   worker -> coordinator    Hello(meta)              campaign identity
//   coordinator -> worker    Welcome("slot inc hb")   admitted: slot index,
//                                                     incarnation (fencing),
//                                                     heartbeat period (ms)
//                            Reject(reason)           wrong campaign / no
//                                                     slot / budget spent
//   coordinator -> worker    Assign("k1 k2 ... kn")   one fault group
//                            Shutdown("")             finish up and exit
//   worker -> coordinator    FaultStart("k")          about to simulate k
//                            FaultResult(record)      k's journal record
//                            GroupDone("")            group finished, idle
//                            Heartbeat("")            liveness (timer thread)
//
// FaultStart is what makes worker death attributable: when a worker dies,
// the coordinator knows exactly which fault was in flight, charges the
// death to that fault alone (attempt accounting, poison after K attempts),
// and requeues the rest of the group onto survivors without penalty.
//
// Hello carries the full JournalMeta of the campaign the worker built from
// its own CLI flags; the coordinator admits only byte-equal metas, so a
// worker configured for a different circuit, sequence, or option set can
// never contribute records to this campaign. The Welcome incarnation is the
// coordinator's fencing token: the coordinator processes frames only from
// the channel it most recently welcomed into a slot, so a fenced-off
// zombie's late frames land on a closed channel, never in the merge.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "faultsim/checkpoint.hpp"

namespace motsim::shard {

enum class MsgType : std::uint8_t {
  Assign = 1,
  Shutdown = 2,
  FaultStart = 3,
  FaultResult = 4,
  GroupDone = 5,
  Heartbeat = 6,
  Hello = 7,
  Welcome = 8,
  Reject = 9,
};

const char* to_string(MsgType t);

/// Space-separated decimal fault indices ("3 17 29").
std::string encode_assign(std::span<const std::size_t> fault_indices);
/// Strict parse of an Assign payload: false on any non-numeric token,
/// overflow, or empty payload.
bool decode_assign(std::string_view payload, std::vector<std::size_t>& out);

/// Decimal fault index of a FaultStart payload.
std::string encode_fault_start(std::size_t fault_index);
bool decode_fault_start(std::string_view payload, std::size_t& out);

/// Hello payload: every JournalMeta field, space-separated decimals with the
/// circuit name last ("num_faults test_length test_hash options_hash
/// baseline circuit"). Strict decode: exactly six tokens, the name free of
/// whitespace, false on anything else.
std::string encode_hello(const JournalMeta& meta);
bool decode_hello(std::string_view payload, JournalMeta& out);

/// Welcome payload: "slot incarnation heartbeat_period_ms". The incarnation
/// is the fencing token of this admission; heartbeat_period_ms is how often
/// the coordinator expects Heartbeat frames (0 = none wanted).
struct WelcomeInfo {
  std::size_t slot = 0;
  std::size_t incarnation = 0;
  std::uint64_t heartbeat_period_ms = 0;
};
std::string encode_welcome(const WelcomeInfo& info);
bool decode_welcome(std::string_view payload, WelcomeInfo& out);

/// Splits `fault_indices` (already in campaign order) into contiguous groups
/// of `group_size` faults; group_size == 0 picks an automatic size that
/// gives each of `workers` processes several groups to claim (fine-grained
/// enough for work stealing, coarse enough to amortize the assignment round
/// trip). Order inside and across groups preserves the input order, which
/// the deterministic fault-index merge of the coordinator relies on.
std::vector<std::vector<std::size_t>> plan_fault_groups(
    std::span<const std::size_t> fault_indices, std::size_t workers,
    std::size_t group_size);

/// The deterministic chaos-kill schedule used by the kill-resilience tests:
/// true when the worker should SIGKILL itself right before simulating
/// `fault_index` in its `incarnation`-th life. Mixing the incarnation in is
/// what lets a retried fault survive on the next worker — only the
/// poison-fault tests (which bypass this and always kill) exercise the
/// K-attempts quarantine.
bool chaos_should_kill(std::uint64_t seed, std::size_t fault_index,
                       std::size_t incarnation, std::uint64_t permille);

}  // namespace motsim::shard
