#!/usr/bin/env python3
"""Determinism lint for the Garibaldi simulator.

The repo guarantees byte-identical output across reruns and --jobs
values.  That property is easy to break silently: iterate an unordered
container into an output stream, read the wall clock, order anything by
pointer value, or accumulate a counter in floating point.  This lint
flags the source patterns that historically cause such breaks:

  unordered-iteration  range-for / .begin() iteration over a
                       std::unordered_map or std::unordered_set
                       declared in the same file or its sibling header.
                       Iteration order is libstdc++-internal and can
                       change with load factor or pointer layout.
  raw-entropy          rand()/srand()/drand48()/std::random_device/
                       std::mt19937 outside src/common/rng — all
                       randomness must flow through the seeded
                       SplitMix64 Rng so runs replay.
  wall-clock           time()/clock()/gettimeofday()/clock_gettime()/
                       std::chrono clocks in simulation code.  Timing
                       must derive from the simulated clock; wall time
                       is allowed only in bench/ and examples/ drivers
                       that measure host throughput.
  pointer-ordering     std::map/std::set keyed on a pointer, std::less
                       over pointers, or reinterpret_cast to
                       (u)intptr_t — address-dependent ordering differs
                       across runs under ASLR.
  float-counter        a float/double variable with a counter-style
                       name (+= accumulation in the same file).
                       Counters must be integral; float accumulation
                       order is not associative.
  static-mutable       mutable state that outlives a call: a static
                       that is not const/constexpr at function, file,
                       namespace or class scope (a static data member),
                       or a non-const variable at file or namespace
                       scope.  Hidden mutable globals are a replay
                       hazard (state leaks across runs in one process)
                       and a data race once sweep workers run sims side
                       by side (--jobs byte-identity); hoist the state
                       into an owner object.
  mutable-unguarded    a `mutable` data member that is neither
                       SIM_GUARDED_BY a capability nor a SimMutex
                       itself (src/common/thread_safety.hh).  Mutation
                       through const paths is exactly what concurrent
                       const readers do not expect; without a lock it
                       is a race.

Suppression: a finding is waived by an annotation on the same line or
the line directly above:

    // determinism-lint: allow(<rule-id>) <justification>

The justification is mandatory; a bare allow() is itself a finding.

Usage: lint_determinism.py [--json PATH] [--list-rules]
                           <file-or-dir>...
--json writes the machine-readable findings report (rule, file, line,
message) that ci.sh keeps as its lint report.
Exit status: 0 when clean, 1 when findings (or bad usage).
"""

import os
import re
import sys

from cpp_scan import (brace_scopes, collapse_angles, scope_kind_at,
                      strip_code, strip_preproc, write_findings_json)

RULES = (
    "unordered-iteration",
    "raw-entropy",
    "wall-clock",
    "pointer-ordering",
    "float-counter",
    "static-mutable",
    "mutable-unguarded",
)

EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")

# Paths (substring match on the normalized relative path) where wall
# clocks are legitimate: host-throughput benches and example drivers.
WALL_CLOCK_EXEMPT = ("bench/", "examples/")

# Files implementing the sanctioned RNG itself.
ENTROPY_EXEMPT = ("src/common/rng.hh", "src/common/rng.cc")

# Host-side drivers may keep static state (bench scaffolding, example
# option tables); simulation code may not.
STATIC_MUTABLE_SKIP = ("bench/", "examples/")

# The warn_once/warn_every_n macro bodies expand to a function-local
# static std::atomic at every call site.  Those atomics are internally
# synchronized, feed stderr rate-limiting only, and never reach
# simulated output — but a comment cannot live inside a backslash-
# continued macro body, so the waiver is this path exemption instead of
# an inline allow().
STATIC_MUTABLE_EXEMPT = ("src/common/logging.hh",)

ALLOW_RE = re.compile(
    r"//\s*determinism-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

COUNTER_NAME_RE = re.compile(
    r"(?i)(count|cycles|hits|misses|stall|accesses|instr|reads|"
    r"writes|retired|evict|merges|windows|bytes)")


def collect_allows(raw_lines):
    """Map line number -> (rule, justification) for every annotation."""
    allows = {}
    for ln, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if m:
            allows[ln] = (m.group(1), m.group(2).strip())
    return allows


def unordered_names(stripped):
    """Identifiers declared as std::unordered_{map,set} members or
    locals in this (stripped) translation unit."""
    names = set()
    for m in re.finditer(
            r"\bstd\s*::\s*unordered_(?:map|set)\s*<", stripped):
        # Walk the template argument list to its matching '>'.
        depth = 1
        j = m.end()
        while j < len(stripped) and depth:
            if stripped[j] == "<":
                depth += 1
            elif stripped[j] == ">":
                depth -= 1
            j += 1
        decl = re.match(r"\s*([A-Za-z_]\w*)\s*[;={(]", stripped[j:])
        if decl:
            names.add(decl.group(1))
    return names


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.msg)


def scan_rule(findings, path, stripped_lines, rule, pattern, msg):
    rx = re.compile(pattern)
    for ln, line in enumerate(stripped_lines, 1):
        if rx.search(line):
            findings.append(Finding(path, ln, rule, msg))


def mutable_head(stmt):
    """Declarator head of @p stmt (everything before any initializer,
    template arguments and SIM_ attribute macros removed), or None when
    the statement declares something immutable or is a function."""
    head = re.split(r"[={]", stmt, 1)[0]
    if re.search(r"\b(?:const|constexpr|constinit)\b", head):
        return None
    head = collapse_angles(head)
    head = re.sub(r"\bSIM_\w+\s*\([^()]*\)", "", head)
    # Function declaration/definition.  (Ctor-paren variable
    # initializers also land here — the codebase's brace-init style
    # keeps that blind spot empty.)
    return None if "(" in head else head


def namespace_statements(text, scopes):
    """(offset, text) of every statement directly at file or namespace
    scope.  Nested brace groups (function and class bodies, brace
    initializers) collapse to '{}', and a group's closing brace ends
    its statement, since a function definition carries no ';'."""
    groups = {s.open_idx: s.close_idx for s in scopes
              if s.kind != "namespace"}
    start, buf = None, []
    i = 0
    while i < len(text):
        c = text[i]
        if i in groups:
            if start is None:
                start = i
            yield start, "".join(buf) + "{}"
            start, buf = None, []
            i = groups[i] + 1
            continue
        if c in "{};":  # namespace brace or end of statement
            if c == ";" and start is not None:
                yield start, "".join(buf)
            start, buf = None, []
        elif not c.isspace():
            if start is None:
                start = i
            buf.append(c)
        elif buf:
            buf.append(" ")
        i += 1


# Statements at namespace scope that never define a variable.
NON_VARIABLE_RE = re.compile(
    r"^(?:template|using|typedef|friend|static_assert|class|struct|"
    r"union|enum|namespace|extern)\b|\boperator\b")

STATIC_MUTABLE_MSG = (
    "mutable state outside any owner object is shared across all "
    "callers: a replay hazard, and a data race between sweep workers; "
    "make it const or hoist it into an owner object")


def static_mutable_scan(findings, path, rel, stripped, scopes):
    """Flag non-const statics at any scope and non-const variables at
    file or namespace scope."""
    if any(x in rel for x in STATIC_MUTABLE_SKIP):
        return
    if any(rel.endswith(x) for x in STATIC_MUTABLE_EXEMPT):
        return
    # The static scan runs on `stripped`, so statics in macro bodies
    # stay visible (they read as file scope, which is exactly the
    # hazard).
    for m in re.finditer(r"\bstatic\s+", stripped):
        idx = m.start()
        end = stripped.find(";", idx)
        if end == -1:
            end = len(stripped)
        if mutable_head(stripped[idx:min(end, idx + 400)]) is not None:
            findings.append(Finding(
                path, stripped.count("\n", 0, idx) + 1, "static-mutable",
                STATIC_MUTABLE_MSG))
    # Non-static globals, on preproc-blanked text: a #define's
    # expansion is checked at its use sites, not as a declaration.
    for idx, stmt in namespace_statements(strip_preproc(stripped), scopes):
        if NON_VARIABLE_RE.search(stmt):
            continue
        head = mutable_head(stmt)
        # A variable needs a type and a name (a lone identifier is the
        # declarator after a class body); statics were flagged above.
        if head is None or re.search(r"\bstatic\b", head) or \
                len(re.findall(r"[A-Za-z_]\w*", head)) < 2:
            continue
        findings.append(Finding(
            path, stripped.count("\n", 0, idx) + 1, "static-mutable",
            STATIC_MUTABLE_MSG))


def mutable_unguarded_scan(findings, path, stripped, scopes):
    """Flag `mutable` data members that are neither SIM_GUARDED_BY a
    capability nor a SimMutex."""
    for m in re.finditer(r"\bmutable\b", stripped):
        idx = m.start()
        if scope_kind_at(scopes, idx) != "class":
            continue  # a mutable lambda
        end = stripped.find(";", idx)
        stmt = stripped[idx:end if end != -1 else len(stripped)]
        if re.search(r"\bSIM_GUARDED_BY\s*\(", stmt) or \
                re.search(r"\bSimMutex\b", collapse_angles(stmt)):
            continue
        findings.append(Finding(
            path, stripped.count("\n", 0, idx) + 1, "mutable-unguarded",
            "mutable member with no lock: const callers may run "
            "concurrently; guard it with SIM_GUARDED_BY(<SimMutex>) or "
            "make the mutating method non-const"))


def lint_file(path, rel, sibling_unordered):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        return [Finding(path, 0, "io", str(e))]

    raw_lines = raw.splitlines()
    allows = collect_allows(raw_lines)
    stripped = strip_code(raw)
    lines = stripped.splitlines()
    findings = []

    # -- unordered-iteration -------------------------------------------
    names = unordered_names(stripped) | sibling_unordered
    if names:
        name_alt = "|".join(re.escape(n) for n in sorted(names))
        iter_rx = re.compile(
            r"(?::\s*(?:%(n)s)\s*\))"          # range-for  : name)
            r"|(?:\b(?:%(n)s)\s*\.\s*(?:begin|cbegin|rbegin)\s*\()"
            % {"n": name_alt})
        for ln, line in enumerate(lines, 1):
            if iter_rx.search(line):
                findings.append(Finding(
                    path, ln, "unordered-iteration",
                    "iteration over an unordered container; order is "
                    "implementation-defined and may reach output"))

    # -- raw-entropy ---------------------------------------------------
    if not any(rel.endswith(x) for x in ENTROPY_EXEMPT):
        scan_rule(findings, path, lines, "raw-entropy",
                  r"(?:\b(?:rand|srand|drand48|lrand48|random)\s*\()"
                  r"|(?:\bstd\s*::\s*(?:random_device|mt19937(?:_64)?|"
                  r"default_random_engine|minstd_rand0?)\b)",
                  "raw entropy source; use the seeded Rng in "
                  "src/common/rng instead")

    # -- wall-clock ----------------------------------------------------
    if not any(x in rel for x in WALL_CLOCK_EXEMPT):
        scan_rule(findings, path, lines, "wall-clock",
                  r"(?:\bstd\s*::\s*chrono\s*::\s*(?:system_clock|"
                  r"steady_clock|high_resolution_clock)\b)"
                  r"|(?:\bgettimeofday\s*\()"
                  r"|(?:\bclock_gettime\s*\()"
                  r"|(?:\btime\s*\(\s*(?:NULL|nullptr|0|&|\)))"
                  r"|(?:\bclock\s*\(\s*\))",
                  "wall-clock read in simulation code; derive timing "
                  "from the simulated clock")

    # -- pointer-ordering ----------------------------------------------
    scan_rule(findings, path, lines, "pointer-ordering",
              r"(?:\bstd\s*::\s*(?:map|set|multimap|multiset)\s*<"
              r"[^<>,]*\*)"
              r"|(?:\bstd\s*::\s*less\s*<[^<>]*\*)"
              r"|(?:\breinterpret_cast\s*<\s*(?:std\s*::\s*)?"
              r"u?intptr_t\b)",
              "ordering or arithmetic on pointer values differs per "
              "run under ASLR")

    # -- float-counter -------------------------------------------------
    decl_rx = re.compile(
        r"^\s*(?:static\s+|mutable\s+|constexpr\s+)*"
        r"(?:float|double)\s+([A-Za-z_]\w*)\s*(?:=|;|\{)")
    float_names = set()
    for line in lines:
        m = decl_rx.match(line)
        if m and COUNTER_NAME_RE.search(m.group(1)):
            float_names.add(m.group(1))
    if float_names:
        acc_rx = re.compile(
            r"\b(%s)\s*\+=" % "|".join(
                re.escape(n) for n in sorted(float_names)))
        for ln, line in enumerate(lines, 1):
            if acc_rx.search(line):
                findings.append(Finding(
                    path, ln, "float-counter",
                    "floating-point accumulation into a counter; "
                    "use an integral counter (float addition is not "
                    "associative)"))

    # -- static-mutable, mutable-unguarded -----------------------------
    # Scope classification on preproc-blanked text so an #include
    # preamble never pollutes a scope head.
    scopes = brace_scopes(strip_preproc(stripped))
    static_mutable_scan(findings, path, rel, stripped, scopes)
    mutable_unguarded_scan(findings, path, stripped, scopes)

    # -- apply allow() annotations -------------------------------------
    kept = []
    for f in findings:
        waived = False
        for ln in (f.line, f.line - 1):
            a = allows.get(ln)
            if a and a[0] == f.rule:
                if not a[1]:
                    kept.append(Finding(
                        path, ln, f.rule,
                        "allow() without a justification"))
                waived = True
                break
        if not waived:
            kept.append(f)

    # Unknown rule names in annotations are themselves findings: a typo
    # would otherwise silently fail to suppress anything.
    for ln, (rule, _) in sorted(allows.items()):
        if rule not in RULES:
            kept.append(Finding(
                path, ln, "bad-allow",
                "allow(%s) names no known rule (known: %s)"
                % (rule, ", ".join(RULES))))
    return kept


def sibling_header_unordered(path):
    """Unordered container names declared in the paired header of a
    .cc file (optgen.cc iterates a map declared in optgen.hh)."""
    stem, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp"):
        return set()
    for hext in (".hh", ".hpp", ".h"):
        hdr = stem + hext
        if os.path.isfile(hdr):
            try:
                with open(hdr, encoding="utf-8",
                          errors="replace") as f:
                    return unordered_names(strip_code(f.read()))
            except OSError:
                return set()
    return set()


def gather(targets):
    files = []
    for t in targets:
        if os.path.isdir(t):
            for root, dirs, names in os.walk(t):
                dirs.sort()
                for n in sorted(names):
                    if n.endswith(EXTS):
                        files.append(os.path.join(root, n))
        elif os.path.isfile(t):
            files.append(t)
        else:
            print("lint_determinism: no such path: %s" % t,
                  file=sys.stderr)
            sys.exit(1)
    return files


def main(argv):
    args = argv[1:]
    if "--list-rules" in args:
        print("\n".join(RULES))
        return 0
    json_path = None
    if "--json" in args:
        i = args.index("--json")
        if i + 1 >= len(args):
            print("lint_determinism: --json needs a value",
                  file=sys.stderr)
            return 1
        json_path = args[i + 1]
        args = args[:i] + args[i + 2:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    findings = []
    for path in gather(args):
        rel = os.path.relpath(path).replace(os.sep, "/")
        findings.extend(
            lint_file(path, rel, sibling_header_unordered(path)))
    if json_path:
        write_findings_json(json_path, "lint_determinism", findings)
    for f in findings:
        print(f)
    if findings:
        print("lint_determinism: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
