#!/usr/bin/env bash
# Smoke-run every shipped scenario file at reduced step counts.
#
# Usage: scripts/scenario_smoke.sh [BUILD_DIR] [STEPS]
#
# Each scenarios/*.json is run through twig --scenario (the file names
# its topology), overriding the file's schedule with a small --steps so
# the whole sweep finishes in seconds, and writing its --trace into a
# temp dir. A run fails the smoke if it exits non-zero, if its output
# carries no metrics (no QoS line), or if its trace is not valid JSON
# lines: a `run` header first, one `interval` line per step. Fault
# scenarios (faults_*.json) additionally must report a fault-event
# summary and carry `fault` lines, autoscale scenarios `scale` lines,
# proving the schedule actually fired within the reduced step budget.
# The --profile-max-share budget must exit 3 when blown and 0 when
# --sim-profile runs alone, and the --sim-profile phase table must
# count the run's intervals only (set-up has its own row). Finally, every kind of bad input (among
# them a checkpoint with one flipped byte) must be rejected with exit
# status exactly 2 and a message (never a crash).
set -u

cd "$(dirname "$0")/.."
build_dir=${1:-build}
steps=${2:-60}
sim="$build_dir/tools/twig"

if [[ ! -x "$sim" ]]; then
    echo "scenario_smoke: $sim not found -- build the project first" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# check_trace FILE STEPS KIND: every line parses, line 1 is the `run`
# header, STEPS `interval` lines, and (when KIND is set) >= 1 KIND line.
check_trace() {
    python3 - "$@" <<'PY'
import json, sys
path, steps, want = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(path) as f:
    lines = [json.loads(line) for line in f]
kinds = [line["kind"] for line in lines]
assert kinds and kinds[0] == "run" and lines[0]["schema"] == 1, "no run header"
assert kinds.count("interval") == steps, f"{kinds.count('interval')} interval lines"
assert not want or want in kinds, f"no {want} line"
PY
}

failures=0
for scenario in scenarios/*.json; do
    printf '== %s (steps=%s)\n' "$scenario" "$steps"
    trace="$tmp/$(basename "$scenario" .json).jsonl"
    if ! out=$("$sim" --scenario "$scenario" --steps "$steps" \
        --trace "$trace" 2>&1); then
        printf '%s\n' "$out"
        echo "scenario_smoke: FAIL $scenario (non-zero exit)" >&2
        failures=$((failures + 1))
        continue
    fi
    printf '%s\n' "$out"
    if ! grep -q "QoS" <<<"$out"; then
        echo "scenario_smoke: FAIL $scenario (no metrics in output)" >&2
        failures=$((failures + 1))
        continue
    fi
    want=
    case "$scenario" in
    scenarios/faults_*.json) want=fault ;;
    scenarios/autoscale_*.json) want=scale ;;
    esac
    if ! check_trace "$trace" "$steps" "$want"; then
        echo "scenario_smoke: FAIL $scenario (bad trace)" >&2
        failures=$((failures + 1))
        continue
    fi
    case "$scenario" in
    scenarios/faults_*.json)
        if ! grep -Eq 'fault events: [1-9]' <<<"$out"; then
            echo "scenario_smoke: FAIL $scenario (fault schedule did not fire)" >&2
            failures=$((failures + 1))
        fi
        ;;
    scenarios/autoscale_*.json)
        if ! grep -Eq 'scale events: [1-9]' <<<"$out"; then
            echo "scenario_smoke: FAIL $scenario (autoscaler never acted)" >&2
            failures=$((failures + 1))
        fi
        ;;
    scenarios/fleet_mixed_gen.json)
        if ! grep -Eq 'fleet bill \$[0-9]' <<<"$out"; then
            echo "scenario_smoke: FAIL $scenario (no cost-model bill in output)" >&2
            failures=$((failures + 1))
        fi
        ;;
    esac
done

# expect_status WANT ARGS...: twig ARGS must exit exactly WANT.
expect_status() {
    local want=$1
    shift
    "$sim" "$@" >/dev/null 2>&1
    local status=$?
    if [[ $status -ne $want ]]; then
        echo "scenario_smoke: FAIL '$*' exited $status (want $want)" >&2
        failures=$((failures + 1))
    fi
}

# Phase budget: six simulator phases cannot all sit at or below 10%.
single=scenarios/fig05.json
expect_status 3 --scenario "$single" --steps "$steps" --sim-profile \
    --profile-max-share 10
expect_status 0 --scenario "$single" --steps "$steps" --sim-profile
echo "== --sim-profile budget exit status"

# The phase table describes the run alone: the single server evaluates
# interference once per interval, and the managers' set-up (their
# Eq. 2 profiling campaigns) is reported on a row of its own.
profile=$("$sim" --scenario scenarios/fig13.json --steps "$steps" \
    --sim-profile 2>&1)
calls=$(awk '$1 == "interference" { print $3 }' <<<"$profile")
if [[ "$calls" != "$steps" ]] || ! grep -q '^  set-up ' <<<"$profile"; then
    printf '%s\n' "$profile"
    echo "scenario_smoke: FAIL --sim-profile run row counts '$calls'" \
        "interference calls for $steps steps" >&2
    failures=$((failures + 1))
fi
echo "== --sim-profile run row"

# A corrupt checkpoint: a freshly trained donor with one byte flipped
# mid-file, which the loader's checksum must catch.
corrupt="$tmp/corrupt.ckpt"
if ! "$sim" --service masstree --nodes 2 --steps 20 \
    --save-checkpoint "$corrupt" >/dev/null 2>&1; then
    echo "scenario_smoke: FAIL (could not write a donor checkpoint)" >&2
    failures=$((failures + 1))
fi
python3 - "$corrupt" <<'PY'
import sys
with open(sys.argv[1], "r+b") as f:
    data = bytearray(f.read())
    data[len(data) // 2] ^= 0x01
    f.seek(0)
    f.write(data)
PY

# Bad input: each line is one invocation that must be rejected.
missing=/nonexistent/twig-smoke
while read -r -a args; do
    out=$("$sim" "${args[@]}" 2>&1)
    status=$?
    if [[ $status -ne 2 || -z "$out" ]]; then
        printf '%s\n' "$out"
        echo "scenario_smoke: FAIL '${args[*]}' exited $status (want 2 with a message)" >&2
        failures=$((failures + 1))
    fi
done <<BAD
--scenario $missing.json
--service nosuch --steps $steps
--service masstree --nodes 2 --steps $steps --checkpoint $missing.ckpt
--service masstree --nodes 2 --steps $steps --checkpoint $corrupt
--service masstree --load nan
--service masstree --load inf
--service masstree --load -1
--service masstree --jobs 0
--scenario $single --service moses
--scenario $single --manager parties
--scenario $single --load 0.3
--scenario $single --pattern diurnal
--scenario $single --nodes 4
--scenario $single --policy wrr
--scenario $single --hetero
--scenario $single --checkpoint $missing.ckpt
--scenario $single --save-checkpoint $missing.ckpt
--scenario $single --domains 2
--scenario $single --autoscale 2:6
--service masstree --policy wrr
--scenario $single --steps $steps --fault-trace x
--scenario $single --steps $steps --trace /dev/full
--scenario $single --steps $steps --trace $missing/run.jsonl
BAD
echo "== bad input rejected with exit 2"

if [[ $failures -gt 0 ]]; then
    echo "scenario_smoke: $failures check(s) failed" >&2
    exit 1
fi
echo "scenario_smoke: all scenarios OK"
