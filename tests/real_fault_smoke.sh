#!/usr/bin/env bash
# End-to-end recovery from real faults. (i) A sweep where hybrid2's
# DRAM cache does not fit in 64 MiB of NM: the hybrid2 point fails,
# baseline and dfc complete, every point is journaled, and h2sim exits
# with the distinct partial-failure code 3. (ii) A runaway point the
# --run-timeout watchdog cancels: exit 3 with "run timeout" in both
# the report and the journal.
#
# Usage: real_fault_smoke.sh <h2sim-binary> <workdir>
set -u

H2SIM=$1
WORKDIR=$2

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"
cd "$WORKDIR" || exit 1

fail() {
    echo "FAIL: $*"
    exit 1
}

# (i) A design that does not fit the configured NM.
"$H2SIM" --design baseline --design dfc --design hybrid2 \
    --workload xalanc --nm-mib 64 --cores 1 --instr 2000 \
    --format json --journal undersized.jnl --out undersized.json
rc=$?
[ "$rc" -eq 3 ] || fail "undersized NM: expected exit 3, got $rc"
# Each design_spec line is followed by its record's "ok" line.
point_ok() {
    grep -A1 "\"design_spec\": \"$1\"" undersized.json | grep -q "\"ok\": $2"
}
point_ok hybrid2 false || fail "undersized NM: hybrid2 point did not fail"
point_ok baseline true || fail "undersized NM: baseline point failed"
point_ok dfc true || fail "undersized NM: dfc point failed"
grep -q 'nm-mib 64' undersized.json || fail "undersized NM: error does not name nm-mib"
recs=$(wc -l < undersized.jnl)
[ "$recs" -eq 3 ] || fail "undersized NM: expected 3 journal records, got $recs"

# (ii) A run far longer than its watchdog allows.
"$H2SIM" --design baseline --workload xalanc --cores 1 \
    --run-timeout 20 --instr 50000000 \
    --journal timeout.jnl --out timeout.txt
rc=$?
[ "$rc" -eq 3 ] || fail "watchdog: expected exit 3, got $rc"
grep -q 'run timeout' timeout.txt || fail "watchdog: report lacks 'run timeout'"
grep -q 'run timeout' timeout.jnl || fail "watchdog: journal lacks 'run timeout'"
grep -q '"timed_out":true' timeout.jnl || fail "watchdog: journal not marked timed_out"

echo "PASS: real-fault sweeps failed only their points, journaled them and exited 3"
