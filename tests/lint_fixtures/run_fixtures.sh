#!/bin/sh
# Self-test of scripts/lint_determinism.py against the fixture corpus:
# every bad_* fixture must trip its expected rule, clean.cc must pass,
# and the lint over the real tree (src/ bench/ examples/) must report
# zero findings.
#
# Usage: run_fixtures.sh [python3-path]
# Env:   REPO_ROOT (defaults to two levels above this script)
set -u

PY="${1:-python3}"
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT="${REPO_ROOT:-$(cd "$HERE/../.." && pwd)}"
LINT="$ROOT/scripts/lint_determinism.py"

fail=0
note() { echo "run_fixtures: $*"; }

if ! "$PY" -c 'import sys' 2>/dev/null; then
    note "SKIP: no usable python interpreter ($PY)"
    exit 0
fi
[ -f "$LINT" ] || { note "FAIL: missing $LINT"; exit 1; }

expect_finding() {
    # expect_finding <fixture> <rule> [rule2...]
    fixture="$1"; shift
    out=$("$PY" "$LINT" "$HERE/$fixture" 2>&1)
    status=$?
    if [ "$status" -eq 0 ]; then
        note "FAIL: $fixture passed the lint but must trip: $*"
        fail=1
        return
    fi
    for rule in "$@"; do
        case "$out" in
            *"[$rule]"*) ;;
            *)
                note "FAIL: $fixture did not report [$rule]"
                echo "$out" | sed 's/^/    /'
                fail=1
                ;;
        esac
    done
    note "ok: $fixture trips $*"
}

expect_clean() {
    # expect_clean <label> <path...>
    label="$1"; shift
    out=$("$PY" "$LINT" "$@" 2>&1)
    if [ $? -ne 0 ]; then
        note "FAIL: $label must be finding-free"
        echo "$out" | sed 's/^/    /'
        fail=1
    else
        note "ok: $label is clean"
    fi
}

expect_finding bad_unordered_iteration.cc unordered-iteration
expect_finding bad_raw_entropy.cc raw-entropy
expect_finding bad_wall_clock.cc wall-clock
expect_finding bad_pointer_ordering.cc pointer-ordering
expect_finding bad_float_counter.cc float-counter
expect_finding bad_static_mutable.cc static-mutable
expect_finding bad_global.cc static-mutable
expect_finding bad_class_static.hh static-mutable
expect_finding bad_unguarded_mutable.hh mutable-unguarded
expect_finding bad_bare_allow.cc unordered-iteration bad-allow

expect_clean "clean.cc" "$HERE/clean.cc"
expect_clean "real tree" "$ROOT/src" "$ROOT/bench" "$ROOT/examples"

if [ "$fail" -ne 0 ]; then
    note "FAILED"
    exit 1
fi
note "all fixtures behaved"
exit 0
