#!/bin/sh
# perf_smoke must refuse a malformed argument with exit 2 and a message that
# names it, before any simulation starts: a typo that parsed as some other
# floor (or as 0.0, which passes every time) would void the guard, and a
# negative cap must not wrap to "every candidate".
# Driven as a tier-1 ctest: $1 is the perf_smoke binary.
set -u

BIN="${1:?usage: perf_smoke_args_test.sh <perf_smoke binary>}"
TMP="${TMPDIR:-/tmp}/motsim_perf_smoke_args_$$"
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
fail=0

for args in "1,3" "abc" "-1.3" "1.3x" "inf" "1.3 -1" "1.3 25x" "1.3 abc"; do
  # shellcheck disable=SC2086 # $args is one or two words on purpose
  "$BIN" $args > "$TMP/out.txt" 2> "$TMP/err.txt"
  rc=$?
  bad=${args##* }
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: perf_smoke $args: expected exit 2, got $rc" >&2
    fail=1
  elif ! grep -q -- "'$bad'" "$TMP/err.txt"; then
    echo "FAIL: perf_smoke $args: stderr does not name '$bad'" >&2
    fail=1
  elif [ -s "$TMP/out.txt" ]; then
    echo "FAIL: perf_smoke $args: the run started before the rejection" >&2
    fail=1
  else
    echo "ok: perf_smoke $args (exit 2)"
  fi
done
exit "$fail"
