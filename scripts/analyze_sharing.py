#!/usr/bin/env python3
"""Cross-TU shared-state analyzer for the Garibaldi simulator.

The ROADMAP's intra-sim parallelism refactor needs a statically
enforced inventory of which simulator state is per-worker,
shared-immutable, lock-guarded, or commutatively merged at epoch
barriers.  src/common/sharing.hh defines the annotation vocabulary;
this analyzer is the enforcement: every mutable member of a
shard-boundary class and every file-scope mutable global must carry
exactly one classification, and the result is emitted as
build/sharing_map.json — the machine-readable shard-boundary spec the
parallelism PR will consume.

Rules:

  unannotated-boundary-member  a data member of a boundary class with
                               no classification marker (and that is
                               not itself a SimMutex capability).
  unannotated-global           a mutable variable at file or namespace
                               scope with no classification marker.
  mutable-unguarded            a `mutable` field that is neither
                               SIM_GUARDED_BY a capability nor a
                               SimMutex itself — mutation through const
                               paths with no lock is exactly the race
                               the shard boundary must exclude.
  bad-merge-op                 SIM_EPOCH_MERGED(op) with op outside the
                               commutative set: sum, min, max,
                               histogram_merge.  Non-commutative merges
                               reintroduce worker-order dependence.
  conflicting-annotations      more than one classification on a single
                               member: the map must be unambiguous.
  missing-boundary-class       a boundary class was not found in the
                               scanned tree — renames must update the
                               analyzer, not silently drop coverage.
  merge-mismatch               a StatSet::add site in a boundary class
                               whose stat kind (read from the add call)
                               merges in a way that cannot be derived
                               from the SIM_EPOCH_MERGED(op) members
                               its value reads — e.g. a counter (sum)
                               computed from a max-merged member.
  bad-allow                    an allow() naming no known rule, or an
                               allow() without a justification.

Suppression: a finding is waived by an annotation on the same line, the
line directly above, or any line of the member's declaration:

    // sharing-lint: allow(<rule>) <justification>

The justification is mandatory; a bare allow() is itself a finding.
Waivers are recorded in the emitted map — a waived member is still
visible to the parallelism work, marked as an open obligation.

Usage: analyze_sharing.py [--emit PATH] [--json PATH]
                          [--boundary NAME]... [--list-rules]
                          <file-or-dir>...
--boundary replaces (not extends) the built-in boundary-class set; the
fixture corpus uses it to test against its own class names.  --json
writes the common machine-readable findings report (rule, file, line,
message) that ci.sh aggregates across both lints.
Exit status: 0 when clean, 1 when findings (or bad usage).
"""

import json
import os
import re
import sys

from cpp_scan import (LineIndex, brace_scopes, collapse_angles,
                      direct_statements, strip_code, strip_preproc,
                      write_findings_json)

RULES = (
    "unannotated-boundary-member",
    "unannotated-global",
    "mutable-unguarded",
    "bad-merge-op",
    "conflicting-annotations",
    "missing-boundary-class",
    "merge-mismatch",
    "bad-allow",
)

MERGE_OPS = ("sum", "min", "max", "histogram_merge")

# Stat kind (the StatSet::add kind argument, src/common/stat_kind.hh;
# absent = counter) -> how per-worker replicas of the stat combine at
# an epoch barrier.  This is the one copy of the stat merge vocabulary.
KIND_MERGE = {
    "counter": "sum",
    "rate": "recompute",
    "gauge": "last",
    "quantile": "recompute",
    "histogram_summary": "recompute",
}

# SIM_EPOCH_MERGED(op) -> stat merge ops derivable from op-merged
# state.  sum and histogram_merge members admit additive projections
# (counters) and recomputed summaries; min/max members only admit
# recomputed stats (their sum is meaningless).
MERGE_COMPAT = {
    "sum": ("sum", "recompute"),
    "histogram_merge": ("sum", "recompute"),
    "min": ("recompute",),
    "max": ("recompute",),
}

# The future shard boundary: every class a worker thread will touch
# when one big sim is sharded across workers (ROADMAP "intra-sim
# parallelism"), plus the classes that are already concurrent today.
BOUNDARY_CLASSES = (
    "BankQueueMonitor",
    "Cache",
    "Directory",
    "Dram",
    "ExperimentContext",
    "Garibaldi",
    "LineFrequencyMonitor",
    "LlcBankSet",
    "MemoryHierarchy",
    "ObsSubsystem",
    "PairingMonitor",
    "Pcg32",
    "ReuseDistanceMonitor",
    "Simulator",
    "System",
    "TelemetrySink",
    "ThreadPool",
    "Tracer",
    "ZipfSampler",
)

EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")

ALLOW_RE = re.compile(r"//\s*sharing-lint:\s*allow\(([a-z-]+)\)\s*(.*)")

MARKERS = (
    ("SIM_PER_WORKER", "per-worker"),
    ("SIM_SHARED_CONST", "shared-const"),
    ("SIM_SHARED_SYNC", "shared-sync"),
)

# Statements that are never data-member / variable declarations.
SKIP_STMT_RE = re.compile(
    r"^(?:template\b|using\b|typedef\b|friend\b|static_assert\b|"
    r"class\b|struct\b|union\b|enum\b|namespace\b|extern\b|operator\b)")

ACCESS_RE = re.compile(r"^(?:(?:public|private|protected)\s*:\s*)+")
ATTR_RE = re.compile(r"\[\[[^\]]*\]\]")
SIM_CALL_RE = re.compile(r"\bSIM_\w+\s*\([^()]*\)")
SIM_BARE_RE = re.compile(r"\bSIM_\w+\b")
ADD_RE = re.compile(r"\.\s*add\s*\(")
KIND_RE = re.compile(r"\bstatkind::(\w+)")


class Finding:
    def __init__(self, path, line, rule, msg):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.msg)


def collect_allows(raw_lines):
    allows = {}
    for ln, line in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(line)
        if m:
            allows[ln] = (m.group(1), m.group(2).strip())
    return allows


def member_name(head):
    """Last identifier of a declarator head (array extents removed)."""
    head = re.sub(r"\[[^\]]*\]", "", head)
    ids = re.findall(r"[A-Za-z_]\w*", head)
    return ids[-1] if ids else ""


def parse_decl(stmt):
    """Decompose one collapsed statement into
    (name, classifications, guard, merge, is_mutable) or None when the
    statement is not a data declaration (functions, aliases, nested
    types, static constants)."""
    stmt = ACCESS_RE.sub("", ATTR_RE.sub("", stmt)).strip()
    if not stmt or SKIP_STMT_RE.match(stmt):
        return None
    # operator= / operator== would split the head at their '=' below;
    # operators are never data members.
    if re.search(r"\boperator\b", stmt):
        return None

    classifs = []
    for macro, cls in MARKERS:
        if re.search(r"\b%s\b" % macro, stmt):
            classifs.append(cls)
    guard = merge = None
    mg = re.search(r"\bSIM_GUARDED_BY\s*\(\s*([^)]*?)\s*\)", stmt)
    if mg:
        classifs.append("guarded")
        guard = mg.group(1)
    me = re.search(r"\bSIM_EPOCH_MERGED\s*\(\s*([^)]*?)\s*\)", stmt)
    if me:
        classifs.append("epoch-merged")
        merge = me.group(1)

    body = SIM_BARE_RE.sub(" ", SIM_CALL_RE.sub(" ", stmt))
    head = re.split(r"=|\{", body, 1)[0]
    head = collapse_angles(head)
    if "(" in head:
        return None  # function / constructor / method declaration
    if re.search(r"\bstatic\b", head) and \
       re.search(r"\b(?:const|constexpr)\b", head):
        return None  # class constant: immutable by construction
    if re.search(r"\bSimMutex\b", head):
        classifs.append("capability")
    name = member_name(head)
    if not name:
        return None
    return (name, classifs, guard, merge,
            re.search(r"\bmutable\b", head) is not None)


class FileReport:
    """Per-file scan state: findings plus waiver bookkeeping."""

    def __init__(self, path, rel, allows):
        self.path, self.rel, self.allows = path, rel, allows
        self.findings = []
        self.waivers = []

    def emit(self, l1, l2, rule, msg):
        """Record a finding unless an allow() within [l1-1, l2] waives
        it.  Returns True when the finding was waived."""
        for ln in range(l1 - 1, l2 + 1):
            a = self.allows.get(ln)
            if a and a[0] == rule:
                if not a[1]:
                    self.findings.append(Finding(
                        self.path, ln, "bad-allow",
                        "allow() without a justification"))
                self.waivers.append({
                    "file": self.rel, "line": ln, "rule": rule,
                    "justification": a[1]})
                return True
        self.findings.append(Finding(self.path, l1, rule, msg))
        return False

    def check_allow_names(self):
        for ln in sorted(self.allows):
            rule = self.allows[ln][0]
            if rule not in RULES:
                self.findings.append(Finding(
                    self.path, ln, "bad-allow",
                    "allow(%s) names no known rule (known: %s)"
                    % (rule, ", ".join(RULES))))


def scan_class(rep, stripped, li, scope, classes):
    members = classes.setdefault(
        scope.name, {"file": rep.rel, "members": {}})["members"]
    for l1, l2, stmt in direct_statements(
            stripped, scope.open_idx + 1, scope.close_idx, li):
        decl = parse_decl(stmt)
        if decl is None:
            continue
        name, classifs, guard, merge, is_mutable = decl

        if merge is not None and merge not in MERGE_OPS:
            rep.emit(l1, l2, "bad-merge-op",
                     "%s::%s merges with '%s'; epoch merges must be "
                     "commutative: %s"
                     % (scope.name, name, merge, ", ".join(MERGE_OPS)))
        if len(classifs) > 1:
            rep.emit(l1, l2, "conflicting-annotations",
                     "%s::%s carries %s; exactly one classification "
                     "per member" % (scope.name, name,
                                     " + ".join(sorted(classifs))))
        elif not classifs:
            waived = rep.emit(
                l1, l2, "unannotated-boundary-member",
                "%s is a shard-boundary class; classify %s with a "
                "src/common/sharing.hh marker (SIM_PER_WORKER, "
                "SIM_SHARED_CONST, SIM_SHARED_SYNC, SIM_GUARDED_BY, "
                "SIM_EPOCH_MERGED)" % (scope.name, name))
            classifs = ["waived" if waived else "unclassified"]
        if is_mutable and "guarded" not in classifs and \
                "capability" not in classifs:
            rep.emit(l1, l2, "mutable-unguarded",
                     "%s::%s is mutable but not SIM_GUARDED_BY a "
                     "capability; const-path mutation without a lock "
                     "is the race the shard boundary must exclude"
                     % (scope.name, name))

        entry = {"classification": classifs[0]}
        if guard is not None:
            entry["guard"] = guard
        if merge is not None:
            entry["merge"] = merge
        members[name] = entry


def scan_globals(rep, gstr, globals_):
    """Mutable variables at file or namespace scope of preproc-stripped
    text: a #define's expansion is checked at its use sites, not as a
    declaration."""
    li = LineIndex(gstr)
    scopes = brace_scopes(gstr)
    spans = [(0, len(gstr))]
    for s in scopes:
        if s.kind == "namespace" and s.ns_chain(scopes):
            spans.append((s.open_idx + 1, s.close_idx))
    for a, b in spans:
        for l1, l2, stmt in direct_statements(gstr, a, b, li):
            decl = parse_decl(stmt)
            if decl is None:
                continue
            name, classifs, guard, merge, _ = decl
            # A declaration needs a type and a name; lone identifiers
            # are stray tokens (label-like), not variables.
            head = re.split(r"=|\{", stmt, 1)[0]
            if len(re.findall(r"[A-Za-z_]\w*",
                              collapse_angles(head))) < 2:
                continue
            if re.search(r"\b(?:const|constexpr|constinit)\b", head):
                continue
            if not classifs:
                waived = rep.emit(
                    l1, l2, "unannotated-global",
                    "mutable state at file/namespace scope; classify "
                    "'%s' with a src/common/sharing.hh marker or hoist "
                    "it into an owner object" % name)
                classifs = ["waived" if waived else "unclassified"]
            entry = {"file": rep.rel, "line": l1, "name": name,
                     "classification": classifs[0]}
            if guard is not None:
                entry["guard"] = guard
            globals_.append(entry)


def call_args(text, open_idx):
    """Spans of the top-level arguments of the call whose '(' sits at
    text[open_idx]."""
    spans, depth, start = [], 0, open_idx + 1
    for i in range(open_idx, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                spans.append((start, i))
                break
        elif c == "," and depth == 1:
            spans.append((start, i))
            start = i + 1
    return spans


def producer_of(stripped, scopes, idx):
    """Qualifying class of the member function enclosing idx
    (`Dram` for a site inside Dram::stats), or None."""
    for s in sorted((s for s in scopes if s.open_idx < idx < s.close_idx),
                    key=lambda s: s.open_idx):
        if s.kind != "other" or not s.ns_chain(scopes):
            continue
        start = s.open_idx - 1
        while start >= 0 and stripped[start] not in ";{}":
            start -= 1
        quals = re.findall(r"\b([A-Za-z_]\w*)\s*::\s*~?[A-Za-z_]\w*\s*\(",
                           stripped[start + 1:s.open_idx])
        if quals:
            return quals[-1]
    return None


def stat_kind(stripped, arg):
    """Kind named by a StatSet::add kind argument: a statkind:: token,
    or a constant initialized from one in the same file (a table of
    rates indexed in a loop)."""
    m = KIND_RE.search(arg)
    ident = re.match(r"\s*([A-Za-z_]\w*)\s*(?:\[|$)", arg)
    if not m and ident:
        d = re.search(r"\b%s\b[^;=]*=" % re.escape(ident.group(1)),
                      stripped)
        m = KIND_RE.search(stripped, d.end()) if d else None
    return m.group(1) if m else None


def scan_stat_sites(rep, stripped, li, scopes, sites):
    """Record every StatSet::add(name, value[, kind]) call inside a
    member function: its producer class, kind and value identifiers."""
    for m in ADD_RE.finditer(stripped):
        args = call_args(stripped, m.end() - 1)
        if len(args) < 2 or '"' not in stripped[args[0][0]:args[0][1]]:
            continue  # Histogram::add(value), windowing machinery
        producer = producer_of(stripped, scopes, m.start())
        if producer is None:
            continue
        kind = "counter"
        if len(args) > 2:
            kind = stat_kind(stripped, stripped[args[2][0]:args[2][1]])
        ids = set(re.findall(r"(?<![\w.>:])([A-Za-z_]\w*)",
                             stripped[args[1][0]:args[1][1]]))
        sites.append((rep, producer, kind, li.line_of(m.start()),
                      li.line_of(args[-1][1]), ids))


def check_merge(sites, classes):
    """merge-mismatch over every recorded add site, once all class
    member maps are known (stats() lives in the .cc, members in the
    .hh)."""
    for rep, producer, kind, l1, l2, ids in sites:
        members = classes.get(producer, {}).get("members", {})
        merge = KIND_MERGE.get(kind)
        for ident in sorted(ids):
            m = members.get(ident)
            if not m or m["classification"] != "epoch-merged":
                continue
            op = m.get("merge")
            if merge and op in MERGE_COMPAT and \
                    merge not in MERGE_COMPAT[op]:
                rep.emit(l1, l2, "merge-mismatch",
                         "a %s stat (merges as %s) computed from "
                         "%s::%s, a SIM_EPOCH_MERGED(%s) member; a "
                         "%s-merged stat cannot be derived from "
                         "%s-merged state"
                         % (kind, merge, producer, ident, op, merge, op))


def analyze_file(path, rel, boundary, classes, globals_, sites):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        rep = FileReport(path, rel, {})
        rep.findings.append(Finding(path, 0, "io", str(e)))
        return rep
    rep = FileReport(path, rel, collect_allows(raw.splitlines()))
    # Preprocessor directives are blanked (offset-preserving) so a
    # #include/#ifndef preamble never pollutes a scope head and macro
    # bodies never read as declarations; classification markers are
    # macro *invocations* and survive.
    stripped = strip_preproc(strip_code(raw))
    li = LineIndex(stripped)
    scopes = brace_scopes(stripped)
    for s in scopes:
        if s.kind == "class" and s.name in boundary:
            scan_class(rep, stripped, li, s, classes)
    scan_globals(rep, stripped, globals_)
    scan_stat_sites(rep, stripped, li, scopes, sites)
    rep.check_allow_names()
    return rep


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
            print("analyze_sharing: no such path: %s" % t,
                  file=sys.stderr)
            sys.exit(1)
    return files


def main(argv):
    emit_path = json_path = None
    boundary = []
    paths = []
    args = argv[1:]
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--list-rules":
            print("\n".join(RULES))
            return 0
        if a in ("--emit", "--boundary", "--json"):
            if i + 1 >= len(args):
                print("analyze_sharing: %s needs a value" % a,
                      file=sys.stderr)
                return 1
            if a == "--emit":
                emit_path = args[i + 1]
            elif a == "--json":
                json_path = args[i + 1]
            else:
                boundary.append(args[i + 1])
            i += 2
            continue
        paths.append(a)
        i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    boundary = tuple(boundary) if boundary else BOUNDARY_CLASSES

    classes = {}
    globals_ = []
    sites = []
    reps = [analyze_file(path, os.path.relpath(path).replace(os.sep, "/"),
                         boundary, classes, globals_, sites)
            for path in gather(paths)]
    check_merge(sites, classes)
    findings = [f for rep in reps for f in rep.findings]
    waivers = [w for rep in reps for w in rep.waivers]

    for cls in sorted(set(boundary) - set(classes)):
        findings.append(Finding(
            "<analyzer>", 0, "missing-boundary-class",
            "boundary class %s was not found in the scanned tree; "
            "update BOUNDARY_CLASSES on rename, never drop coverage "
            "silently" % cls))

    if emit_path:
        doc = {
            "schema": "garibaldi-sharing-map-v1",
            "boundary_classes": sorted(boundary),
            "classes": classes,
            "globals": sorted(
                globals_, key=lambda g: (g["file"], g["line"])),
            "waivers": sorted(
                waivers, key=lambda w: (w["file"], w["line"])),
        }
        d = os.path.dirname(emit_path)
        if d:
            os.makedirs(d, exist_ok=True)
        with open(emit_path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    if json_path:
        write_findings_json(json_path, "analyze_sharing", findings)

    for f in findings:
        print(f)
    if findings:
        print("analyze_sharing: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
