#!/bin/sh
# Run a bench or example and diff its stdout against a committed
# golden under scripts/goldens/.  Knobs-off runs are deterministic, so
# any byte of drift is a behaviour change.
#
# Usage: golden_diff.sh <golden-file> <actual-out> <binary> [args...]
set -u

golden="$1"
actual="$2"
shift 2

if ! "$@" > "$actual"; then
    echo "golden_diff: FAIL: '$*' exited non-zero"
    exit 1
fi
if ! diff -q "$golden" "$actual" > /dev/null; then
    echo "golden_diff: FAIL: '$*' drifted from $golden"
    diff -u "$golden" "$actual" | head -40
    exit 1
fi
echo "golden_diff: ok: output byte-identical to $golden"
