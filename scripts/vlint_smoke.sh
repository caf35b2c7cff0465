#!/usr/bin/env bash
# vlint smoke: drive the analyzer end to end through the CLI over the
# known-dirty fixtures in testdata/lint/ and assert the -json report
# shape with jq. Run from the repo root; CI's analyze job does.
set -euo pipefail

cd "$(dirname "$0")/.."

VLINT="$(mktemp -d)/vlint"
trap 'rm -rf "$(dirname "$VLINT")"' EXIT
go build -o "$VLINT" ./cmd/vlint

FIXTURES=(testdata/lint/latch_sensitivity.v testdata/lint/comb_loop.v
          testdata/lint/races_alias.v testdata/lint/shared_loop_var.v)

fail() { echo "vlint_smoke: FAIL: $*" >&2; exit 1; }

# --- JSON report over all fixtures -----------------------------------
OUT="$("$VLINT" -json "${FIXTURES[@]}")"
echo "$OUT" | jq -e . >/dev/null || fail "-json output is not valid JSON"

[ "$(echo "$OUT" | jq 'length')" -eq 4 ] || fail "expected 4 file reports"
[ "$(echo "$OUT" | jq '[.[] | select(.ok)] | length')" -eq 4 ] \
  || fail "fixtures are frontend-clean; every report should be ok"

# Every rule the fixtures are built to trigger must appear.
for rule in L001 L002 L003 L004 L005 L006 L007 L008 L009 L010; do
  n="$(echo "$OUT" | jq --arg r "$rule" '[.[].findings[] | select(.rule == $r)] | length')"
  [ "$n" -ge 1 ] || fail "rule $rule fired $n times over the fixtures, want >= 1"
done

# Findings carry positions, severities, and messages.
echo "$OUT" | jq -e 'all(.[].findings[]; .line > 0 and .severity == "warning" and (.message | length) > 0)' \
  >/dev/null || fail "malformed finding in -json output"

# The write-race and shared-loop-var findings carry related positions.
for rule in L005 L010; do
  echo "$OUT" | jq -e --arg r "$rule" \
    '[.[].findings[] | select(.rule == $r and (.related | length) > 0)] | length >= 1' \
    >/dev/null || fail "no $rule finding carries related positions"
done

# --- rule selection ---------------------------------------------------
# Frontend diagnostics (no rule code) stay in the report; the analyzer
# rule set must collapse to exactly L010.
ONLY="$("$VLINT" -json -rules L010 testdata/lint/races_alias.v)"
echo "$ONLY" | jq -e '[.[].findings[].rule | select(. != null)] | unique == ["L010"]' \
  >/dev/null || fail "-rules L010 did not restrict the rule set"

"$VLINT" -rules no-such-rule testdata/lint/comb_loop.v 2>/dev/null \
  && fail "unknown rule accepted" || [ $? -eq 2 ] || fail "unknown rule: wrong exit code"

"$VLINT" -rules list | grep -q '^L010  alias-hazard' || fail "-rules list missing L010"

# --- severity escalation drives the exit code -------------------------
if "$VLINT" -severity all=error testdata/lint/comb_loop.v >/dev/null; then
  fail "-severity all=error should exit nonzero on findings"
fi
"$VLINT" testdata/lint/comb_loop.v >/dev/null || fail "warnings alone should exit zero"

# --- hostile input: an oversized register is a typed diagnostic -------
# -coverage simulates every elaborable file; a 2e9-bit register must be
# refused by the frontend (a resource-limit error, exit 1) before it
# reaches the simulator, not kill vlint (a Go fatal error exits 2).
HOSTILE=testdata/hostile/oversized_register.v
rc=0; HOUT="$("$VLINT" -coverage -json "$HOSTILE")" || rc=$?
[ "$rc" -eq 1 ] || fail "vlint -coverage on $HOSTILE exited $rc, want 1"
echo "$HOUT" | jq -e '.[0].ok == false and .[0].findings[0].category == "resource-limit"' \
  >/dev/null || fail "$HOSTILE: no resource-limit diagnostic in -json output"
HLOG="$("$VLINT" -coverage "$HOSTILE")" || true
echo "$HLOG" | grep -q 'over the limit of 65536 bits' \
  || fail "$HOSTILE: the persona log does not report the width limit"

# --- hostile input: $clog2 and shifts at the top of the 64-bit range --
# A doubling loop never ends above 2^63 (1<<64 is 0 in Go): the $clog2
# constant hung sema's folder, the 64-bit input hung the walker under
# -coverage. A shift count of 2^63, read as a negative int, recursed in
# sema's folder and both backends until the stack overflowed (a Go fatal
# error exits 2). All must finish (timeout exits 124) with exit 0, and
# $clog2(2^64-1) must read 64.
for HOSTILE in testdata/hostile/clog2_constant.v testdata/hostile/clog2_input.v \
               testdata/hostile/shift_top_of_range.v; do
  rc=0; timeout 10 "$VLINT" "$HOSTILE" >/dev/null || rc=$?
  [ "$rc" -eq 0 ] || fail "vlint on $HOSTILE exited $rc, want 0"
  rc=0; CLOG="$(timeout 10 "$VLINT" -coverage "$HOSTILE" 2>&1)" || rc=$?
  [ "$rc" -eq 0 ] || fail "vlint -coverage on $HOSTILE exited $rc, want 0"
  echo "$CLOG" | grep -q "$HOSTILE: coverage" || fail "$HOSTILE: no coverage summary"
done
VCD="$(dirname "$VLINT")/clog2.vcd"
timeout 10 "$VLINT" -vcd "$VCD" testdata/hostile/clog2_constant.v >/dev/null \
  || fail "vlint -vcd on clog2_constant.v failed"
grep -q '^b1000000 ' "$VCD" || fail "clog2_constant.v: y is not \$clog2(2^64-1) = 64 in the VCD"

echo "vlint_smoke: OK"
