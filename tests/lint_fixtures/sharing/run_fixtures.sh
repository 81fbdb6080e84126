#!/bin/sh
# Self-test of scripts/analyze_sharing.py against the fixture corpus:
# every bad_* fixture must trip exactly its expected rule,
# clean_guarded.hh must pass, and the analyzer over the real src/ tree
# must report zero findings while emitting a sharing map that covers
# every boundary class.
#
# Fixtures declare their own boundary classes via --boundary (which
# REPLACES the built-in set), so the corpus stays decoupled from the
# simulator's class names.
#
# Usage: run_fixtures.sh [python3-path]
# Env:   REPO_ROOT (defaults to three levels above this script)
set -u

PY="${1:-python3}"
HERE=$(cd "$(dirname "$0")" && pwd)
ROOT="${REPO_ROOT:-$(cd "$HERE/../../.." && pwd)}"
LINT="$ROOT/scripts/analyze_sharing.py"

fail=0
note() { echo "sharing_fixtures: $*"; }

if ! "$PY" -c 'import sys' 2>/dev/null; then
    note "SKIP: no usable python interpreter ($PY)"
    exit 0
fi
[ -f "$LINT" ] || { note "FAIL: missing $LINT"; exit 1; }

expect_finding() {
    # expect_finding <fixture> <boundary-class|-> <rule> [rule2...]
    fixture="$1"
    bclass="$2"
    shift 2
    if [ "$bclass" = "-" ]; then
        out=$("$PY" "$LINT" "$HERE/$fixture" 2>&1)
    else
        out=$("$PY" "$LINT" --boundary "$bclass" "$HERE/$fixture" 2>&1)
    fi
    status=$?
    if [ "$status" -eq 0 ]; then
        note "FAIL: $fixture passed the analyzer but must trip: $*"
        fail=1
        return
    fi
    ok=1
    for rule in "$@"; do
        case "$out" in
            *"[$rule]"*) ;;
            *)
                note "FAIL: $fixture did not report [$rule]"
                echo "$out" | sed 's/^/    /'
                fail=1
                ok=0
                ;;
        esac
    done
    [ "$ok" -eq 1 ] && note "ok: $fixture trips $*"
}

expect_clean() {
    # expect_clean <label> <analyzer args...>
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

expect_finding bad_unannotated_member.hh FixtureBank \
    unannotated-boundary-member
expect_finding bad_bare_allow.hh FixtureQueue bad-allow
expect_finding bad_merge_op.hh FixtureStats bad-merge-op
expect_finding bad_unguarded_mutable.hh FixtureCacheFacade \
    mutable-unguarded
expect_finding bad_global.cc - unannotated-global
expect_finding bad_merge_mismatch.cc FixtureWatermark merge-mismatch

expect_clean "clean_guarded.hh" --boundary FixtureLedger \
    "$HERE/clean_guarded.hh"

# A boundary class the scanned tree does not define is itself a
# finding: renames must never silently drop coverage.
out=$("$PY" "$LINT" --boundary NoSuchClass "$HERE/clean_guarded.hh" 2>&1)
if [ $? -eq 0 ]; then
    note "FAIL: missing boundary class must be a finding"
    fail=1
else
    case "$out" in
        *"[missing-boundary-class]"*)
            note "ok: missing boundary class trips" ;;
        *)
            note "FAIL: expected [missing-boundary-class]"
            echo "$out" | sed 's/^/    /'
            fail=1 ;;
    esac
fi

# The real tree: zero findings, and the emitted map must cover every
# built-in boundary class (the sharing_map_test gtest checks the map's
# shape in depth; this keeps the shell lane self-contained).
MAP="${TMPDIR:-/tmp}/sharing_map_fixture_$$.json"
expect_clean "real src tree" --emit "$MAP" "$ROOT/src"
if [ -f "$MAP" ]; then
    if "$PY" - "$MAP" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
missing = [c for c in doc["boundary_classes"] if c not in doc["classes"]]
if missing:
    print("missing classes in map:", ", ".join(missing))
    sys.exit(1)
EOF
    then
        note "ok: sharing map covers every boundary class"
    else
        note "FAIL: sharing map does not cover every boundary class"
        fail=1
    fi
    rm -f "$MAP"
else
    note "FAIL: --emit produced no sharing map"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    note "FAILED"
    exit 1
fi
note "all fixtures behaved"
exit 0
