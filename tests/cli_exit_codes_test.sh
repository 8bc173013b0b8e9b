#!/bin/sh
# Exit-code contract of benchmark_sweep, asserted exhaustively (see the
# header of examples/benchmark_sweep.cpp):
#   0  complete           3  cancelled by signal, resumable
#   1  usage error        4  journal failure (setup or mid-run I/O)
#   2  budget-stopped,    5  worker-death partial completion (fleet lost,
#      resumable             restart budget spent), resumable
# Worker mode (--connect) adds: 6 = remote transport failure. The remote
# (--listen/--connect) section runs a real loopback multi-host campaign and
# demands tables byte-identical to the in-process run.
# The last section checks that every other example CLI and a bench binary
# reject a misspelled flag before doing any work.
# Driven as a tier-1 ctest: $1 is the benchmark_sweep binary, the rest are
# the other example and bench binaries.
set -u

BIN="${1:?usage: cli_exit_codes_test.sh <benchmark_sweep> [other binaries...]}"
shift
TMP="${TMPDIR:-/tmp}/motsim_cli_exit_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
fail=0

check() {
  desc="$1"; want="$2"; got="$3"
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got" >&2
    fail=1
  else
    echo "ok: $desc (exit $got)"
  fi
}

# 0 — a clean run of one small circuit completes every fault.
"$BIN" --circuits s298 > "$TMP/out0.txt" 2>&1
check "clean run completes" 0 $?

# 1 — usage errors: exclusive flags, and a journal over a multi-circuit sweep.
"$BIN" --journal "$TMP/j.journal" --resume "$TMP/j.journal" \
  > /dev/null 2>&1
check "--journal with --resume is a usage error" 1 $?
"$BIN" --journal "$TMP/j.journal" --circuits s298,s344 > /dev/null 2>&1
check "--journal needs exactly one circuit" 1 $?

# 1 — malformed count flags and unknown flags (a typo such as --thread) are
# usage errors that name the flag, caught before anything runs: nothing on
# stdout, and no journal (the campaign's first step, ahead of every thread
# pool and worker process) was created.
for args in "--threads abc" "--threads -1" "--workers 4x" "--thread 2"; do
  rm -f "$TMP/flag.journal"
  # shellcheck disable=SC2086 # $args is two words on purpose
  "$BIN" --circuits s298 $args --journal "$TMP/flag.journal" \
    > "$TMP/out1f.txt" 2> "$TMP/err1f.txt"
  check "$args is a usage error" 1 $?
  flag=${args%% *}
  if ! grep -q -- "$flag" "$TMP/err1f.txt"; then
    echo "FAIL: $args: stderr does not name $flag" >&2
    fail=1
  fi
  if [ -s "$TMP/out1f.txt" ] || [ -e "$TMP/flag.journal" ]; then
    echo "FAIL: $args: the campaign started before the flag was rejected" >&2
    fail=1
  fi
done

# 1 — a circuit name the suite does not know (a typo of s5378) is a usage
# error naming it, not a run over nothing.
"$BIN" --circuits s298,s5387 > "$TMP/out1c.txt" 2> "$TMP/err1c.txt"
check "--circuits with an unknown circuit is a usage error" 1 $?
if ! grep -q "s5387" "$TMP/err1c.txt" || [ -s "$TMP/out1c.txt" ]; then
  echo "FAIL: unknown circuit: stderr does not name s5387 or a run started" >&2
  fail=1
fi

# The pre-pass and MOT work tables hold deterministic counts only: they are
# identical at 1 and 4 threads.
"$BIN" --circuits s298 --threads 1 > "$TMP/out_t1.txt" 2>&1
check "run at 1 thread completes" 0 $?
"$BIN" --circuits s298 --threads 4 > "$TMP/out_t4.txt" 2>&1
check "run at 4 threads completes" 0 $?
sed -n '/^Pre-pass work/,$p' "$TMP/out_t1.txt" > "$TMP/work_t1.txt"
sed -n '/^Pre-pass work/,$p' "$TMP/out_t4.txt" > "$TMP/work_t4.txt"
if [ "$(wc -l < "$TMP/work_t1.txt")" -lt 4 ]; then
  echo "FAIL: no pre-pass work table" >&2
  fail=1
elif ! grep -q "^MOT work" "$TMP/work_t1.txt"; then
  echo "FAIL: no MOT work table after the pre-pass work table" >&2
  fail=1
elif cmp -s "$TMP/work_t1.txt" "$TMP/work_t4.txt"; then
  echo "ok: pre-pass and MOT work tables are identical at 1 and 4 threads"
else
  echo "FAIL: the work tables differ between 1 and 4 threads" >&2
  diff "$TMP/work_t1.txt" "$TMP/work_t4.txt" >&2
  fail=1
fi

# 2 — an exhausted campaign budget leaves incomplete faults (budget 1 ms:
# the campaign deadline fires before the MOT candidates are processed).
"$BIN" --circuits s420 --campaign-ms 1 --journal "$TMP/stop.journal" \
  > "$TMP/out2.txt" 2>&1
rc=$?
if [ "$rc" -eq 2 ]; then
  check "campaign budget stop" 2 "$rc"
  # ... and the journal resumes the rest to completion.
  "$BIN" --circuits s420 --resume "$TMP/stop.journal" > "$TMP/out2b.txt" 2>&1
  check "resume after budget stop completes" 0 $?
else
  # On an extremely fast machine every fault may finish inside the budget;
  # completion (0) is then the correct report, not a test failure.
  check "campaign budget stop (machine too fast: completed)" 0 "$rc"
fi

# 3 — SIGINT mid-campaign: clean cancellation, resumable exit.
"$BIN" --circuits s5378 --threads 2 --journal "$TMP/sig.journal" \
  > "$TMP/out3.txt" 2>&1 &
pid=$!
# Give the sweep a moment to get past setup, then interrupt it once.
sleep 2
kill -INT "$pid" 2> /dev/null
wait "$pid"
rc=$?
if [ "$rc" -eq 0 ]; then
  # The campaign can finish before the signal lands on fast machines.
  check "SIGINT cancellation (machine too fast: completed)" 0 "$rc"
else
  check "SIGINT cancellation is exit 3" 3 "$rc"
fi

# 4 — a journal that cannot be created is an I/O error, reported before any
# simulation happens.
"$BIN" --circuits s298 --journal "$TMP/missing_dir/j.journal" \
  > /dev/null 2>&1
check "unwritable journal path" 4 $?
# Resuming from a journal that does not exist is an I/O error too.
"$BIN" --circuits s298 --resume "$TMP/nonexistent.journal" > /dev/null 2>&1
check "missing resume journal" 4 $?

# 0 with --workers — the supervised multi-process path completes cleanly and
# reports the same result as in-process (byte-identical tables).
"$BIN" --circuits s298 --workers 2 > "$TMP/outw.txt" 2>&1
check "clean run with 2 workers completes" 0 $?
if command -v sed > /dev/null 2>&1; then
  # Compare from "Table 2" down: the per-circuit progress lines differ (the
  # worker path reports deaths when chaos is on), the tables must not —
  # except the diagnostics "workers" column, which reports the worker count.
  sed -n '/^Table 2/,/^Table 3/p' "$TMP/out0.txt" > "$TMP/t2_inproc.txt"
  sed -n '/^Table 2/,/^Table 3/p' "$TMP/outw.txt" > "$TMP/t2_workers.txt"
  if cmp -s "$TMP/t2_inproc.txt" "$TMP/t2_workers.txt"; then
    echo "ok: --workers 2 Table 2 is identical to in-process"
  else
    echo "FAIL: --workers 2 changed Table 2" >&2
    diff "$TMP/t2_inproc.txt" "$TMP/t2_workers.txt" >&2
    fail=1
  fi
fi

# 0 under chaos — seeded SIGKILLs of workers are recovered by restarts and
# change nothing about the result.
"$BIN" --circuits s298 --workers 2 --chaos-kill-permille 200 \
  --chaos-kill-seed 7 --max-fault-attempts 1000 --max-worker-restarts 10000 \
  > "$TMP/outc.txt" 2>&1
check "chaos-killed workers still complete" 0 $?
if command -v sed > /dev/null 2>&1; then
  sed -n '/^Table 2/,/^Table 3/p' "$TMP/outc.txt" > "$TMP/t2_chaos.txt"
  if cmp -s "$TMP/t2_inproc.txt" "$TMP/t2_chaos.txt"; then
    echo "ok: chaos-killed Table 2 is identical to in-process"
  else
    echo "FAIL: chaos kills changed Table 2" >&2
    diff "$TMP/t2_inproc.txt" "$TMP/t2_chaos.txt" >&2
    fail=1
  fi
fi

# 5 — losing the whole worker fleet with no restart budget is a partial
# completion with its own exit code: every fault attempt kills its worker
# (permille 1000), and the fleet has no restart budget.
"$BIN" --circuits s298 --workers 1 --max-worker-restarts 0 \
  --chaos-kill-permille 1000 --journal "$TMP/lost.journal" \
  > "$TMP/out5.txt" 2>&1
check "worker-fleet loss is exit 5" 5 $?
# ... and the journaled campaign resumes to completion in-process.
"$BIN" --circuits s298 --resume "$TMP/lost.journal" > "$TMP/out5b.txt" 2>&1
check "resume after fleet loss completes" 0 $?

# --- remote mode (--listen / --connect): same exit table, new transport ---

# 1 — coordinator and worker roles are exclusive; a worker serves exactly
# one circuit and never owns the journal.
"$BIN" --listen 127.0.0.1:0 --connect 127.0.0.1:1 --circuits s298 \
  > /dev/null 2>&1
check "--listen with --connect is a usage error" 1 $?
"$BIN" --connect 127.0.0.1:1 --circuits s298,s344 > /dev/null 2>&1
check "--connect needs exactly one circuit" 1 $?
"$BIN" --connect 127.0.0.1:1 --circuits s298 \
  --journal "$TMP/w.journal" > /dev/null 2>&1
check "--connect with --journal is a usage error" 1 $?

# 6 — a worker that can never reach its coordinator exhausts its connect
# budget with the transport-failure code (port 1 is reserved: refused).
"$BIN" --connect 127.0.0.1:1 --circuits s298 --connect-attempts 2 \
  > /dev/null 2>&1
check "unreachable coordinator is worker exit 6" 6 $?

# 0 — a loopback multi-host campaign: one coordinator on an ephemeral port,
# two worker processes; everyone exits 0 and the coordinator's tables are
# byte-identical to the in-process run.
rm -f "$TMP/port"
"$BIN" --circuits s298 --listen 127.0.0.1:0 --listen-port-file "$TMP/port" \
  --workers 2 > "$TMP/outr.txt" 2>&1 &
coord=$!
port=""
tries=0
while [ "$tries" -lt 100 ]; do
  if [ -s "$TMP/port" ]; then port=$(cat "$TMP/port"); break; fi
  tries=$((tries + 1))
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "FAIL: coordinator never published its port" >&2
  kill "$coord" 2> /dev/null
  fail=1
else
  "$BIN" --circuits s298 --connect "127.0.0.1:$port" > "$TMP/outw1.txt" 2>&1 &
  w1=$!
  "$BIN" --circuits s298 --connect "127.0.0.1:$port" > "$TMP/outw2.txt" 2>&1 &
  w2=$!
  wait "$coord"; check "remote coordinator completes" 0 $?
  wait "$w1"; check "remote worker 1 exits clean" 0 $?
  wait "$w2"; check "remote worker 2 exits clean" 0 $?
  if command -v sed > /dev/null 2>&1; then
    sed -n '/^Table 2/,/^Table 3/p' "$TMP/outr.txt" > "$TMP/t2_remote.txt"
    if cmp -s "$TMP/t2_inproc.txt" "$TMP/t2_remote.txt"; then
      echo "ok: remote campaign Table 2 is identical to in-process"
    else
      echo "FAIL: remote campaign changed Table 2" >&2
      diff "$TMP/t2_inproc.txt" "$TMP/t2_remote.txt" >&2
      fail=1
    fi
  fi
fi

# 5 — a coordinator whose remote fleet never arrives gives up after the
# join window with the same partial-completion code as a lost local fleet,
# and the journal resumes in-process.
"$BIN" --circuits s298 --listen 127.0.0.1:0 --workers 1 \
  --remote-join-ms 200 --journal "$TMP/lostr.journal" \
  > "$TMP/out5r.txt" 2>&1
check "remote fleet loss is exit 5" 5 $?
"$BIN" --circuits s298 --resume "$TMP/lostr.journal" > /dev/null 2>&1
check "resume after remote fleet loss completes" 0 $?

# --- the other CLIs: a misspelled flag is a usage error ---

# Each binary gets a plausible typo of one of its own flags. It must exit
# with that program's usage-error code (2 for iscas_conformance and
# verify_fuzz, 1 for the rest), name the flag on stderr, and print nothing
# on stdout: the program stopped before doing any work.
reject() {
  what="$1"; want="$2"; flag="$3"; shift 3
  "$@" > "$TMP/outu.txt" 2> "$TMP/erru.txt"
  check "$what $flag is a usage error" "$want" $?
  if ! grep -q -- "$flag" "$TMP/erru.txt"; then
    echo "FAIL: $what $flag: stderr does not name the flag" >&2
    fail=1
  fi
  if [ -s "$TMP/outu.txt" ]; then
    echo "FAIL: $what $flag: the program ran before rejecting the flag" >&2
    fail=1
  fi
}

for cli in "$@"; do
  name=$(basename "$cli")
  case "$name" in
    quickstart) reject "$name" 1 --seeed "$cli" --seeed 3 ;;
    diagnose) reject "$name" 1 --fault-indx "$cli" --fault-indx 1 ;;
    bench_inspect)
      reject "$name" 1 --stat "$cli" --stat
      # A boolean flag ahead of the file takes the path as its value.
      reject "$name" 1 --stats "$cli" --stats "$TMP/c.bench"
      ;;
    oracle_explorer) reject "$name" 1 --circuit "$cli" --circuit 3 ;;
    mot_walkthrough) reject "$name" 1 --bogus "$cli" --bogus ;;
    iscas_conformance) reject "$name" 2 --testcase "$cli" --testcase "$TMP" ;;
    verify_fuzz)
      reject "$name" 2 --seed "$cli" --seed 5
      reject "$name --iscas" 2 --seed "$cli" --iscas "$TMP" --seed 5
      reject "$name --replay" 2 --seed "$cli" --replay "$TMP/x.bundle" --seed 5
      ;;
    bench_*) reject "$name" 1 --skip-rpro "$cli" --skip-rpro ;;
    *)
      echo "FAIL: no misspelled-flag case for $name" >&2
      fail=1
      ;;
  esac
done

exit "$fail"
