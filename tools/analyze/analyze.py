#!/usr/bin/env python3
"""The repository checker for the hamming-mr tree: ten passes over one
C++ frontend (python3 stdlib only; see frontend.py).

Three semantic passes run over the program parsed from the translation
units in the build's compile_commands.json:

  [lock-order]   Extracts every mutex acquisition (MutexLock /
                 ReleasableMutexLock RAII sites, manual Lock/Unlock,
                 HAMMING_REQUIRES seeds) and builds an inter-procedural
                 acquisition graph.  Every nesting edge between two
                 declared locks must appear in lock_order.toml; the
                 combined declared+observed graph must be acyclic; locks
                 participating in nesting must be declared; leaf locks
                 admit no outgoing edges; user callbacks must not run
                 under a lock unless the spec grants callbacks_allowed;
                 a CondVar wait may not hold a second mutex.
  [epoch-pin]    While an EpochPublisher snapshot is pinned (Pin() ..
                 scope end, or the statement for transient Pin()->...
                 chains), the path may not acquire a non-pin_safe mutex,
                 block (CondVar wait / SleepFor / join / WaitIdle), or
                 call through a user-supplied callback — transitively
                 through the call graph.
  [discard]      AST-accurate Status/Result discard checks: bare
                 expression-statement discards (including through
                 ternary and comma expressions and return-type
                 typedefs), plus the (void)-cast justification rule and
                 the [[nodiscard]] attribute presence check on
                 Status/Result.

Five token passes read the token stream and #include list of every file
under their roots, compiled or not ([raw-sync] and [metric-name] also
lex the bodies of its other directives, so a macro cannot hide what they
ban), and two build passes read compile_commands.json itself:

  [layering]       Every src/ directory -> directory include edge is in
                   ALLOWED_EDGES, and the NO_REACH rules hold over the
                   transitive file-level include graph: kernels, common
                   and code never reach mapreduce; mapreduce never
                   reaches index or mrjoin.
  [orphan-module]  Every header under src/ is included by a file under
                   LIVE_INCLUDER_ROOTS other than its own .cc.
  [raw-sync]       No raw std::mutex / std::condition_variable /
                   std::thread (or their lock adapters and headers)
                   outside src/common/; synchronization goes through the
                   annotated wrappers in common/sync.h.
  [metric-args]    No ++/--/assignment inside HAMMING_METRIC_* macro
                   arguments: the macros vanish under
                   -DHAMMING_METRICS_DISABLED.
  [metric-name]    Every string-literal Counter/Gauge/Histogram
                   registration under src/ is a lowercase dotted name
                   declared in src/observability/metric_names.h.
  [kernel-tu]      Each SIMD kernel TU is compiled with its -m<isa> flags,
                   or is absent only because its tier is gated off.
  [build-coverage] Every other src/ translation unit is in the build.

Findings not fixed immediately live in baseline.json with a per-entry
expiry date; expired or stale entries fail the run, so the baseline only
ratchets toward zero.  `--self-test` seeds every pass with the negative
fixtures under selftest/ and fails loudly if any pass stops firing.

Exit status: 0 clean, 1 findings, 2 usage/internal error (including a
build directory without compile_commands.json).
"""

from __future__ import annotations

import argparse
import collections
import datetime
import fnmatch
import json
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from frontend import Program, parse_file, tokenize  # noqa: E402

try:
    import tomllib
except ImportError:  # pragma: no cover - python < 3.11
    tomllib = None


# --------------------------------------------------------------------------
# Spec
# --------------------------------------------------------------------------


class LockSpec:
    def __init__(self, d):
        self.name = d["name"]
        self.matches = set(d.get("matches", []))
        self.leaf = bool(d.get("leaf", False))
        self.pin_safe = bool(d.get("pin_safe", False))
        self.callbacks_allowed = bool(d.get("callbacks_allowed", False))
        self.why = d.get("why", "")


class Spec:
    def __init__(self, data, path):
        self.path = path
        cfg = data.get("config", {})
        self.roots = cfg.get("roots", ["src"])
        self.discard_roots = cfg.get("discard_roots", self.roots)
        self.skip = cfg.get("skip", [])
        self.pin_methods = set(cfg.get("pin_methods", ["Pin"]))
        self.callback_types = set(cfg.get("callback_types", ["function"]))
        self.callback_methods = set(cfg.get("callback_methods", []))
        self.callback_name_patterns = [
            re.compile(p) for p in cfg.get("callback_name_patterns", [])]
        self.blocking_calls = set(cfg.get("blocking_calls", []))
        self.nodiscard_headers = cfg.get("nodiscard_headers", [])
        self.locks = [LockSpec(d) for d in data.get("lock", [])]
        self.orders = [(d["before"], d["after"], d.get("why", ""))
                       for d in data.get("order", [])]
        self._by_identity = {}
        self._by_name = {}
        for lk in self.locks:
            self._by_name[lk.name] = lk
            for m in lk.matches:
                self._by_identity[m] = lk
        self.declared_edges = {(b, a) for b, a, _ in self.orders}
        self.validate()

    def validate(self):
        names = set()
        for lk in self.locks:
            if lk.name in names:
                raise SpecError(f"duplicate lock name '{lk.name}'")
            names.add(lk.name)
        for b, a, _ in self.orders:
            for n in (b, a):
                if n not in self._by_name:
                    raise SpecError(
                        f"[[order]] references unknown lock '{n}'")
            if self._by_name[b].leaf:
                raise SpecError(
                    f"lock '{b}' is declared leaf but has an outgoing "
                    f"[[order]] edge to '{a}' — leaves admit no edges")
        # declared graph must itself be acyclic
        cyc = find_cycle(self.declared_edges)
        if cyc:
            raise SpecError("declared lock order contains a cycle: " +
                            " -> ".join(cyc))

    def lock_for(self, identity):
        return self._by_identity.get(identity)

    def name_for(self, identity):
        lk = self._by_identity.get(identity)
        return lk.name if lk else None

    def is_callback_call(self, ev, var_core):
        if ev.kind not in ("invoke", "call"):
            return False
        # a local/param/member of functional type invoked directly
        if var_core and (var_core in self.callback_types):
            return True
        if ev.kind == "invoke":
            return any(p.search(ev.name)
                       for p in self.callback_name_patterns)
        if ev.name in self.callback_methods:
            return True
        # unreceivered call whose NAME matches a callback pattern
        # (covers members the type resolver could not see)
        if ev.recv is None:
            return any(p.search(ev.name)
                       for p in self.callback_name_patterns)
        return False


class SpecError(Exception):
    pass


def load_spec(path):
    if tomllib is None:
        raise SpecError("python3 tomllib unavailable (need >= 3.11)")
    with open(path, "rb") as f:
        data = tomllib.load(f)
    return Spec(data, path)


def find_cycle(edges):
    """Returns a cycle as a node list (closed) or None."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    parent = {}

    def dfs(u):
        color[u] = GRAY
        for v in sorted(adj.get(u, ())):
            if color.get(v, WHITE) == WHITE:
                parent[v] = u
                r = dfs(v)
                if r:
                    return r
            elif color.get(v) == GRAY:
                path = [v, u]
                w = u
                while w != v and w in parent:
                    w = parent[w]
                    path.append(w)
                path.reverse()
                return path
        color[u] = BLACK
        return None

    for u in sorted(adj):
        if color.get(u, WHITE) == WHITE:
            r = dfs(u)
            if r:
                return r
    return None


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------


class Finding:
    def __init__(self, rule, path, line, message, fingerprint=None):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.fingerprint = fingerprint or f"{rule}:{path}:{message}"
        self.baselined = False

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Function summaries (transitive)
# --------------------------------------------------------------------------


class Summary:
    __slots__ = ("acquires", "waits", "callbacks", "blocking")

    def __init__(self):
        self.acquires = set()
        self.waits = False
        self.callbacks = False
        self.blocking = False

    def union(self, other):
        before = (len(self.acquires), self.waits, self.callbacks,
                  self.blocking)
        self.acquires |= other.acquires
        self.waits |= other.waits
        self.callbacks |= other.callbacks
        self.blocking |= other.blocking
        return before != (len(self.acquires), self.waits,
                          self.callbacks, self.blocking)


class Analysis:
    """Shared resolution state for one analyzer run."""

    def __init__(self, program: Program, spec: Spec):
        self.prog = program
        self.spec = spec
        self.call_edges = {}   # fn -> [(ev, [callees])]
        self.summaries = {}    # fn -> Summary
        self._resolve_all()
        self._fixpoint()

    def _resolve_all(self):
        for fn in self.prog.functions:
            if not fn.has_body:
                continue
            edges = []
            for ev in fn.events:
                if ev.kind == "call":
                    edges.append((ev, self.prog.resolve_callees(fn, ev)))
                elif ev.kind in ("acquire", "wait", "release") and \
                        ev.lock and not isinstance(ev.lock, str):
                    ev.lock = self.prog.lock_identity(fn, ev.lock)
            self.call_edges[fn] = edges

    def _fixpoint(self):
        spec = self.spec
        for fn in self.prog.functions:
            if not fn.has_body:
                continue
            s = Summary()
            for ev in fn.events:
                if ev.kind == "acquire":
                    s.acquires.add(ev.lock)
                elif ev.kind == "wait":
                    s.waits = True
                elif ev.kind in ("invoke", "call"):
                    if spec.is_callback_call(
                            ev, self.prog.var_core(fn, ev.name)):
                        s.callbacks = True
                    if ev.kind == "call" and \
                            ev.name in spec.blocking_calls:
                        s.blocking = True
            self.summaries[fn] = s
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for fn, edges in self.call_edges.items():
                s = self.summaries[fn]
                for _, callees in edges:
                    for c in callees:
                        cs = self.summaries.get(c)
                        if cs is not None and s.union(cs):
                            changed = True

    def callees(self, fn, ev):
        for e, cal in self.call_edges.get(fn, ()):
            if e is ev:
                return cal
        return []


# --------------------------------------------------------------------------
# Pass 1: lock-order
# --------------------------------------------------------------------------


def _in_scope(path, roots):
    rp = path.replace(os.sep, "/")
    return any(rp.startswith(r.rstrip("/") + "/") or rp == r
               for r in roots)


def run_lock_order(an: Analysis, scope_roots, findings: list):
    prog, spec = an.prog, an.spec
    observed = {}   # (from_id, to_id) -> {path: (line, note)}
    for fn in prog.functions:
        if not fn.has_body or not _in_scope(fn.path, scope_roots):
            continue
        if fn.no_tsa:
            continue  # explicit opt-out, same meaning as Clang's
        _simulate(an, fn, observed, findings)
    # Map identities to spec names; undeclared participants fail.
    # One finding per (edge, file) so every offending TU is named.
    mapped = set()
    for (a, b), sites in sorted(observed.items()):
        la, lb = spec.name_for(a), spec.name_for(b)
        key = f"edge:{a}->{b}"
        for path, (line, note) in sorted(sites.items()):
            if la is None or lb is None:
                missing = a if la is None else b
                findings.append(Finding(
                    "lock-order", path, line,
                    f"lock '{missing}' participates in nesting "
                    f"({a} -> {b}{note}) but has no [[lock]] entry in "
                    f"{os.path.basename(spec.path)}",
                    f"lock-order:{path}:{key}"))
                continue
            if spec._by_name[la].leaf:
                findings.append(Finding(
                    "lock-order", path, line,
                    f"leaf lock '{la}' ({a}) acquires '{lb}' "
                    f"({b}){note} — leaves admit no nested "
                    "acquisitions",
                    f"lock-order:{path}:leaf:{la}->{lb}"))
                continue
            if la != lb:
                mapped.add((la, lb))  # undeclared edges join the cycle
            if (la, lb) not in spec.declared_edges and la != lb:
                findings.append(Finding(
                    "lock-order", path, line,
                    f"undeclared lock-order edge {la} -> {lb} "
                    f"({a} -> {b}{note}); declare it with [[order]] in "
                    f"{os.path.basename(spec.path)} or restructure",
                    f"lock-order:{path}:{key}"))
    cyc = find_cycle(spec.declared_edges | mapped)
    if cyc:
        findings.append(Finding(
            "lock-order", os.path.basename(spec.path), 1,
            "lock-order graph (declared + observed) contains a cycle: "
            + " -> ".join(cyc),
            "lock-order:spec:cycle:" + "->".join(cyc)))


def _simulate(an: Analysis, fn, observed, findings):
    prog, spec = an.prog, an.spec
    held = []        # [{"id", "depth"}]
    suspended = []   # [(entry, release_depth)]

    def seed_requires():
        for arg in fn.requires_locks:
            toks = re.findall(r"\w+|->|\.|::|!", arg)
            if toks and toks[0] == "!":
                continue  # EXCLUDES-style negation
            ident = prog.lock_identity(fn, toks)
            held.append({"id": ident, "depth": 0, "var": None,
                         "style": "required"})

    seed_requires()
    for ev in fn.events:
        if ev.kind == "scope_close":
            d = ev.depth
            held[:] = [e for e in held if e["depth"] < d]
            keep = []
            for e, rd in suspended:
                if rd >= d:
                    if e["depth"] < d:
                        held.append(e)
                else:
                    keep.append((e, rd))
            suspended[:] = keep
            continue
        if ev.kind == "acquire":
            ident = ev.lock
            # manual re-acquire of a branch-released lock
            for k, (e, rd) in enumerate(suspended):
                if e["id"] == ident:
                    suspended.pop(k)
                    held.append(e)
                    break
            else:
                for e in held:
                    if e["id"] == ident:
                        findings.append(Finding(
                            "lock-order", fn.path, ev.line,
                            f"'{ident}' acquired while already held in "
                            f"{fn.qname} (self-deadlock on a "
                            "non-recursive mutex)",
                            f"lock-order:{fn.path}:double:{ident}:"
                            f"{fn.qname}"))
                        break
                else:
                    for e in held:
                        observed.setdefault(
                            (e["id"], ident), {}).setdefault(
                            fn.path, (ev.line, f" in {fn.qname}"))
                    held.append({"id": ident, "depth": ev.depth,
                                 "var": ev.var, "style": ev.style})
            continue
        if ev.kind == "release":
            target = None
            for e in held:
                if (ev.var is not None and e.get("var") == ev.var) or \
                        (ev.lock is not None and e["id"] == ev.lock):
                    target = e
                    break
            if target is None:
                continue
            held.remove(target)
            if ev.depth > target["depth"]:
                suspended.append((target, ev.depth))
            continue
        if ev.kind == "wait":
            waited = ev.lock if isinstance(ev.lock, str) else \
                (prog.lock_identity(fn, ev.lock) if ev.lock else None)
            others = [e["id"] for e in held if e["id"] != waited]
            if others:
                findings.append(Finding(
                    "lock-order", fn.path, ev.line,
                    f"CondVar wait on '{waited}' while also holding "
                    f"{', '.join(others)} in {fn.qname} — the held "
                    "lock blocks every peer for the wait duration",
                    f"lock-order:{fn.path}:wait:{fn.qname}:"
                    f"{','.join(others)}"))
            continue
        if ev.kind == "invoke" or ev.kind == "call":
            var_core = prog.var_core(fn, ev.name)
            if spec.is_callback_call(ev, var_core) and held:
                for e in held:
                    lk = spec.lock_for(e["id"])
                    if lk is not None and lk.callbacks_allowed:
                        continue
                    findings.append(Finding(
                        "lock-order", fn.path, ev.line,
                        f"user callback '{ev.name}' invoked while "
                        f"holding '{e['id']}' in {fn.qname} — callbacks "
                        "under a lock need callbacks_allowed in the "
                        "spec or a restructure",
                        f"lock-order:{fn.path}:callback:{e['id']}:"
                        f"{fn.qname}"))
            if ev.kind == "call" and held:
                for callee in an.callees(fn, ev):
                    cs = an.summaries.get(callee)
                    if cs is None:
                        continue
                    for acq in cs.acquires:
                        for e in held:
                            if e["id"] != acq:
                                observed.setdefault(
                                    (e["id"], acq), {}).setdefault(
                                    fn.path,
                                    (ev.line,
                                     f" via {callee.qname} in "
                                     f"{fn.qname}"))


# --------------------------------------------------------------------------
# Pass 2: epoch-pin
# --------------------------------------------------------------------------


def run_epoch_pin(an: Analysis, scope_roots, findings: list):
    prog, spec = an.prog, an.spec
    for fn in prog.functions:
        if not fn.has_body or not _in_scope(fn.path, scope_roots):
            continue
        pins = []   # {"depth", "stmt" (transient) or None, "line"}
        for ev in fn.events:
            if ev.kind == "scope_close":
                pins = [p for p in pins
                        if p["stmt"] is None and p["depth"] < ev.depth
                        or p["stmt"] is not None]
            pins = [p for p in pins
                    if p["stmt"] is None or p["stmt"] == ev.stmt]
            active = bool(pins)
            if active and ev.kind == "acquire":
                lk = spec.lock_for(ev.lock)
                if lk is None or not lk.pin_safe:
                    findings.append(Finding(
                        "epoch-pin", fn.path, ev.line,
                        f"'{ev.lock}' acquired while an epoch snapshot "
                        f"is pinned in {fn.qname} (pinned at line "
                        f"{pins[0]['line']}) — only pin_safe locks may "
                        "be taken under a pin",
                        f"epoch-pin:{fn.path}:lock:{ev.lock}:"
                        f"{fn.qname}"))
            elif active and ev.kind == "wait":
                findings.append(Finding(
                    "epoch-pin", fn.path, ev.line,
                    f"CondVar wait while an epoch snapshot is pinned in "
                    f"{fn.qname} — a blocked reader pins its epoch and "
                    "stalls reclamation",
                    f"epoch-pin:{fn.path}:wait:{fn.qname}"))
            elif ev.kind in ("invoke", "call"):
                var_core = prog.var_core(fn, ev.name)
                is_cb = spec.is_callback_call(ev, var_core)
                if active and is_cb:
                    findings.append(Finding(
                        "epoch-pin", fn.path, ev.line,
                        f"user callback '{ev.name}' invoked while an "
                        f"epoch snapshot is pinned in {fn.qname} — "
                        "user code can block or re-enter the index",
                        f"epoch-pin:{fn.path}:callback:{ev.name}:"
                        f"{fn.qname}"))
                elif active and ev.kind == "call":
                    if ev.name in spec.blocking_calls:
                        findings.append(Finding(
                            "epoch-pin", fn.path, ev.line,
                            f"blocking call '{ev.name}' while an epoch "
                            f"snapshot is pinned in {fn.qname}",
                            f"epoch-pin:{fn.path}:block:{ev.name}:"
                            f"{fn.qname}"))
                    else:
                        for callee in an.callees(fn, ev):
                            cs = an.summaries.get(callee)
                            if cs is None:
                                continue
                            bad_acq = sorted(
                                a for a in cs.acquires
                                if not (spec.lock_for(a) and
                                        spec.lock_for(a).pin_safe))
                            if bad_acq:
                                findings.append(Finding(
                                    "epoch-pin", fn.path, ev.line,
                                    f"call to {callee.qname} while "
                                    f"pinned in {fn.qname} acquires "
                                    f"non-pin_safe lock(s): "
                                    f"{', '.join(bad_acq)}",
                                    f"epoch-pin:{fn.path}:call-lock:"
                                    f"{callee.qname}:{fn.qname}"))
                            elif cs.waits or cs.blocking:
                                findings.append(Finding(
                                    "epoch-pin", fn.path, ev.line,
                                    f"call to {callee.qname} while "
                                    f"pinned in {fn.qname} can block "
                                    "(transitive CondVar wait or "
                                    "sleep)",
                                    f"epoch-pin:{fn.path}:call-block:"
                                    f"{callee.qname}:{fn.qname}"))
                            elif cs.callbacks:
                                findings.append(Finding(
                                    "epoch-pin", fn.path, ev.line,
                                    f"call to {callee.qname} while "
                                    f"pinned in {fn.qname} runs a "
                                    "user callback (transitively)",
                                    f"epoch-pin:{fn.path}:call-cb:"
                                    f"{callee.qname}:{fn.qname}"))
                # register new pin AFTER checking the pin call itself.
                # The pin is durable (lives to scope end) only when the
                # assigned variable actually holds the snapshot; a
                # Pin()->... chain or `int v = Pin()->Value()` pins only
                # for the statement.
                if ev.kind == "call" and ev.name in spec.pin_methods:
                    durable = False
                    if ev.assigned:
                        acore = prog.var_core(fn, ev.assigned)
                        pcore = prog.call_return_core(fn, ev.name)
                        durable = acore in (None, "auto") or \
                            pcore is None or acore == pcore
                    if durable:
                        pins.append({"depth": ev.depth, "stmt": None,
                                     "line": ev.line})
                    else:
                        pins.append({"depth": ev.depth, "stmt": ev.stmt,
                                     "line": ev.line})


# --------------------------------------------------------------------------
# Pass 3: discard
# --------------------------------------------------------------------------


def run_discard(an: Analysis, scope_roots, root, findings: list):
    prog, spec = an.prog, an.spec
    for hdr, cls in spec.nodiscard_headers:
        path = os.path.join(root, hdr)
        if not os.path.isfile(path):
            findings.append(Finding(
                "discard", hdr, 1, "header is missing",
                f"discard:{hdr}:missing"))
            continue
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if not re.search(r"class\s*\[\[nodiscard\]\]\s*" + cls, text):
            findings.append(Finding(
                "discard", hdr, 1,
                f"class {cls} must be declared [[nodiscard]]",
                f"discard:{hdr}:attr:{cls}"))
    for fn in prog.functions:
        if not fn.has_body or not _in_scope(fn.path, scope_roots):
            continue
        fir = prog.files.get(fn.path)
        comment_lines = fir.comment_lines if fir else set()
        void_seq = 0
        prev_ok_line = -10
        for st in fn.statements:
            if st.macro:
                continue
            if st.void_cast:
                void_seq += 1
                window = range(st.line - 2, st.line + 1)
                if any(w in comment_lines for w in window) or \
                        prev_ok_line == st.line - 1:
                    prev_ok_line = st.line
                    continue
                findings.append(Finding(
                    "discard", fn.path, st.line,
                    f"(void)-discarded call result in {fn.qname} "
                    "without a justifying comment on the same line or "
                    "the two lines above",
                    f"discard:{fn.path}:void:{fn.qname}:{void_seq}"))
                continue
            for name, recv in st.segments:
                cands = _discard_candidates(prog, fn, name, recv)
                if cands and all(c.returns_status for c in cands):
                    findings.append(Finding(
                        "discard", fn.path, st.line,
                        f"result of '{name}' (returns Status/Result) "
                        f"discarded in {fn.qname} — handle it, or "
                        "(void)-cast with a justifying comment",
                        f"discard:{fn.path}:{fn.qname}:{name}"))


def _discard_candidates(prog, fn, name, recv):
    if name in prog.classes:
        return []  # constructor expression
    if recv and len(recv) >= 2 and recv[-1] == "::":
        return prog.method_index.get((recv[0], name), [])
    if recv:
        core = prog.chain_core(fn, recv)
        if core:
            out = []
            for c in prog.hierarchy(core):
                out.extend(prog.method_index.get((c, name), []))
            return out
        # unknown receiver: only trust a name that lives in one class
        cands = prog.name_index.get(name, [])
        if len({c.cls for c in cands}) == 1:
            return cands
        return []
    cands = []
    if fn.cls:
        for c in prog.hierarchy(fn.cls):
            cands.extend(prog.method_index.get((c, name), []))
    if cands:
        return cands
    free = [c for c in prog.name_index.get(name, []) if c.cls is None]
    if free:
        return free
    cands = prog.name_index.get(name, [])
    if len({c.cls for c in cands}) == 1:
        return cands
    return []


# --------------------------------------------------------------------------
# Token passes: layering, orphan-module, raw-sync, metric-args, metric-name
# --------------------------------------------------------------------------

SRC_EXTS = (".h", ".cc", ".cpp")

# The complete allowlist of directory -> directory include edges inside
# src/. An edge not listed here is a finding even if it would not create
# a cycle: growing the graph is a decision made by editing this table
# (and DESIGN.md §4.12 alongside it).
ALLOWED_EDGES = {
    "common": set(),
    "code": {"common"},
    "kernels": {"code", "common"},
    "observability": {"common"},
    "dataset": {"code", "common"},
    "hashing": {"code", "common", "dataset"},
    "index": {"code", "common", "kernels", "observability"},
    "chem": {"common", "index"},
    "join": {"common", "index", "kernels"},
    "knn": {"code", "common", "dataset", "hashing", "index"},
    "ops": {"code", "common", "dataset", "hashing", "index", "join",
            "kernels"},
    "storage": {"common", "hashing", "index", "ops"},
    "mapreduce": {"common", "observability", "storage"},
    "mrjoin": {"code", "common", "dataset", "hashing", "index", "join",
               "knn", "mapreduce", "observability"},
    "serving": {"code", "common", "index", "observability"},
}

# Per-file exceptions to ALLOWED_EDGES. TraceCollector *is* an
# mr::JobObserver: the adapter between the runtime's event stream and the
# Chrome-trace export lives on the observability side, so the runtime
# stays export-format-agnostic.
FILE_EDGE_EXCEPTIONS = {
    "observability/trace.h": {"mapreduce"},
    "observability/trace.cc": {"mapreduce"},
}

# Reachability rules over the transitive file-level include graph, so a
# legal direct edge cannot smuggle in an illegal layer two hops away.
NO_REACH = [
    ({"kernels", "common", "code"}, {"mapreduce"}),
    ({"mapreduce"}, {"index", "mrjoin"}),
]

# The trees whose includes keep a src/ header alive. tests/ and fuzz/ are
# left out on purpose: they exercise modules, they are not callers.
LIVE_INCLUDER_ROOTS = ["src", "bench", "perfbench", "examples"]

# [raw-sync] and [metric-args] cover every tree that compiles against src/.
CODE_ROOTS = ["src", "tests", "bench", "examples", "fuzz"]

RAW_SYNC_NAMES = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "thread", "jthread", "lock_guard",
    "unique_lock", "scoped_lock", "shared_lock"}
RAW_SYNC_HEADERS = {"mutex", "thread", "condition_variable", "shared_mutex"}

METRIC_MACROS = {"HAMMING_METRIC_ADD", "HAMMING_METRIC_SET",
                 "HAMMING_METRIC_OBSERVE"}
# ++/--, compound and simple assignment; the comparisons ==, <=, >=, !=
# are tokens of their own.
SIDE_EFFECT_OPS = {"++", "--", "=", "+=", "-=", "*=", "/=", "%=", "&=",
                   "|=", "^=", "<<=", ">>="}

METRIC_NAMES_HEADER = "src/observability/metric_names.h"
METRIC_KINDS = {"Counter", "Gauge", "Histogram"}
# At least two dot-separated [a-z0-9_] segments, starting with a letter
# ("serving.queue_wait_us").
METRIC_NAME_FORMAT = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


class Sources:
    """The token passes' view of a tree: the C++ files under any of its
    roots, each read and tokenized once (directive bodies are lexed on
    demand). Files the program already parsed reuse their tokens."""

    def __init__(self, root, prog=None):
        self.root = root
        self._lexed = {p: (ir.toks, ir.includes, ir.directives)
                       for p, ir in (prog.files.items() if prog else ())}

    def walk(self, roots):
        for sub in roots:
            for dirpath, _, names in os.walk(os.path.join(self.root, sub)):
                for name in sorted(names):
                    if name.endswith(SRC_EXTS):
                        yield os.path.relpath(os.path.join(dirpath, name),
                                              self.root).replace(os.sep, "/")

    def lex(self, path):
        """(tokens, includes, directives) of a root-relative path."""
        if path not in self._lexed:
            with open(os.path.join(self.root, path), encoding="utf-8") as f:
                toks, _, includes, directives = tokenize(f.read())
            self._lexed[path] = (toks, includes, directives)
        return self._lexed[path]

    def streams(self, path):
        """The file's token stream, then one per directive body (#define,
        #if, ...), for the passes a macro must not hide a construct from."""
        toks, _, directives = self.lex(path)
        return [toks] + [tokenize(body, line, in_directive=True)[0]
                         for line, body in directives]

    def quoted_includes(self, path):
        return [(line, inc) for line, inc, angled in self.lex(path)[1]
                if not angled]


def run_layering(src: Sources, findings: list):
    graph = {}  # src-relative file -> src-relative includes
    for path in src.walk(["src"]):
        r = path[len("src/"):]
        from_dir = r.split("/")[0]
        if from_dir not in ALLOWED_EDGES:
            findings.append(Finding(
                "layering", path, 1,
                f"directory src/{from_dir} is not in the layering table; "
                "add it to ALLOWED_EDGES in tools/analyze/analyze.py"))
            continue
        graph[r] = set()
        allowed = ALLOWED_EDGES[from_dir] | FILE_EDGE_EXCEPTIONS.get(r, set())
        for line, inc in src.quoted_includes(path):
            to_dir = inc.split("/")[0]
            if to_dir not in ALLOWED_EDGES:
                continue  # not a src/ include (gtest, etc.)
            graph[r].add(inc)
            if to_dir != from_dir and to_dir not in allowed:
                findings.append(Finding(
                    "layering", path, line,
                    f'include "{inc}" creates edge {from_dir} -> {to_dir}, '
                    "which is not in the layering DAG"))
    for r in sorted(set(graph) - set(FILE_EDGE_EXCEPTIONS)):
        from_dir = r.split("/")[0]
        for sources, targets in NO_REACH:
            if from_dir not in sources:
                continue
            hit = _reached_dirs(graph, r) & targets
            if hit:
                findings.append(Finding(
                    "layering", "src/" + r, 1,
                    f"{from_dir} transitively reaches "
                    f"{', '.join(sorted(hit))} (forbidden layer)"))


def _reached_dirs(graph, start):
    """Directories `start` reaches over the include graph. A path through
    a FILE_EDGE_EXCEPTIONS file is already blessed and is not followed."""
    dirs, seen, stack = set(), {start}, [start]
    while stack:
        for inc in graph.get(stack.pop(), ()):
            dirs.add(inc.split("/")[0])
            if inc not in seen and inc not in FILE_EDGE_EXCEPTIONS:
                seen.add(inc)
                stack.append(inc)
    return dirs


def run_orphan_modules(src: Sources, findings: list):
    includers = {}  # include path (relative to src/) -> including files
    for path in src.walk(LIVE_INCLUDER_ROOTS):
        for _, inc in src.quoted_includes(path):
            includers.setdefault(inc, set()).add(path)
    for path in src.walk(["src"]):
        if not path.endswith(".h"):
            continue
        own_cc = path[:-len(".h")] + ".cc"
        if not includers.get(path[len("src/"):], set()) - {own_cc}:
            findings.append(Finding(
                "orphan-module", path, 1,
                "no file under src/, bench/, perfbench/ or examples/ "
                "includes this header except its own .cc (tests/ and "
                "fuzz/ do not count) — give the module a caller or "
                "delete it"))


def run_raw_sync(src: Sources, findings: list):
    for path in src.walk(CODE_ROOTS):
        if path.startswith("src/common/"):
            continue  # the one directory allowed to touch std primitives
        raw = {}  # line -> first raw construct on it
        for line, inc, angled in src.lex(path)[1]:
            if angled and inc in RAW_SYNC_HEADERS:
                raw.setdefault(line, f"#include <{inc}>")
        for toks in src.streams(path):
            for k, t in enumerate(toks[:-2]):
                if t.text == "std" and toks[k + 1].text == "::" and \
                        toks[k + 2].text in RAW_SYNC_NAMES:
                    raw.setdefault(t.line, "std::" + toks[k + 2].text)
        for line, what in sorted(raw.items()):
            findings.append(Finding(
                "raw-sync", path, line,
                f"raw '{what}' outside src/common/ — use the annotated "
                "wrappers in common/sync.h (Mutex/MutexLock/CondVar/"
                "Thread)"))


def run_metric_args(src: Sources, findings: list):
    for path in src.walk(CODE_ROOTS):
        toks = src.lex(path)[0]  # a macro's own definition is no call
        for k, t in enumerate(toks[:-1]):
            if t.text not in METRIC_MACROS or toks[k + 1].text != "(":
                continue
            args = _top_level_args(toks, k + 1)
            if args is None:
                findings.append(Finding(
                    "metric-args", path, t.line,
                    "unbalanced parentheses in HAMMING_METRIC_ call"))
                continue
            for arg in args:
                if any(a.text in SIDE_EFFECT_OPS for a in arg):
                    findings.append(Finding(
                        "metric-args", path, t.line,
                        "side-effecting expression "
                        f"'{' '.join(a.text for a in arg)}' in "
                        "HAMMING_METRIC_ argument — it vanishes under "
                        "-DHAMMING_METRICS_DISABLED"))


def _top_level_args(toks, lparen):
    """toks[lparen] is '('; returns the token list of each top-level
    argument, or None if the brackets never balance."""
    depth, args, cur = 0, [], []
    for k in range(lparen, len(toks)):
        x = toks[k].text
        if x in ("(", "[", "{"):
            depth += 1
            if depth == 1:
                continue
        elif x in (")", "]", "}"):
            depth -= 1
            if depth == 0:
                return args + [cur]
        elif x == "," and depth == 1:
            args.append(cur)
            cur = []
            continue
        cur.append(toks[k])
    return None


def run_metric_names(src: Sources, findings: list):
    declared = None
    if os.path.isfile(os.path.join(src.root, METRIC_NAMES_HEADER)):
        declared = {t.text[1:-1]
                    for toks in src.streams(METRIC_NAMES_HEADER)
                    for t in toks if t.kind == "str"}
    for path in src.walk(["src"]):
        if path == METRIC_NAMES_HEADER:
            continue
        for toks in src.streams(path):
            for k, t in enumerate(toks[:-3]):
                # A literal right after the paren; dynamic names (a prefix
                # expression, a variable) never match and are exempt.
                if t.text not in METRIC_KINDS or toks[k + 1].text != "(" or \
                        toks[k + 2].kind != "str" or toks[k + 3].text != ")":
                    continue
                call = f"{t.text}({toks[k + 2].text})"
                name = toks[k + 2].text[1:-1]
                if not METRIC_NAME_FORMAT.match(name):
                    problem = ("— metric names are lowercase dotted "
                               'identifiers ("family.metric_name")')
                elif declared is None:
                    problem = (f"but {METRIC_NAMES_HEADER} is missing — "
                               "literal metric names must be declared "
                               "there")
                elif name not in declared:
                    problem = (f"is not declared in {METRIC_NAMES_HEADER} "
                               "— add the constant there (one place to "
                               "see the whole metric namespace)")
                else:
                    continue
                findings.append(Finding("metric-name", path, t.line,
                                        f"{call} {problem}"))


def run_token_passes(src: Sources, findings: list):
    run_layering(src, findings)
    run_orphan_modules(src, findings)
    run_raw_sync(src, findings)
    run_metric_args(src, findings)
    run_metric_names(src, findings)


# --------------------------------------------------------------------------
# Build passes: kernel-tu, build-coverage
# --------------------------------------------------------------------------

# One load of a build directory: {real source path: compile command} from
# compile_commands.json, and the CMake cache.
Build = collections.namedtuple("Build", "commands cache")

# SIMD translation units: the ISA flags their compile command must carry,
# the CMake cache probes that may gate them out (a compiler without the
# flags), and the option that may switch the tier off.
KERNEL_TU_FLAGS = {
    "src/kernels/hamming_kernels_avx2.cc": {
        "flags": ["-mavx2"],
        "probe_vars": ["HAMMING_CXX_HAS_MAVX2"],
        "option_var": None,
    },
    "src/kernels/hamming_kernels_avx512.cc": {
        "flags": ["-mavx512f", "-mavx512bw", "-mavx512vpopcntdq"],
        "probe_vars": ["HAMMING_CXX_HAS_MAVX512F",
                       "HAMMING_CXX_HAS_MAVX512BW",
                       "HAMMING_CXX_HAS_MAVX512VPOPCNTDQ"],
        "option_var": "HAMMING_AVX512",
    },
}

_CMAKE_FALSE = {"", "0", "off", "no", "false", "n", "ignore", "notfound"}


def load_build(build_dir):
    cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(cc_path):
        raise RuntimeError(
            f"{cc_path} not found — configure the build first "
            "(cmake -B build -S .); CMAKE_EXPORT_COMPILE_COMMANDS is "
            "forced on by the root CMakeLists")
    with open(cc_path, encoding="utf-8") as f:
        commands = {os.path.realpath(e["file"]):
                    e.get("command") or " ".join(e.get("arguments", []))
                    for e in json.load(f)}
    cache = {}
    cache_path = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache_path):
        with open(cache_path, encoding="utf-8") as f:
            for line in f:
                m = re.match(r"([^:=]+):[^=]*=(.*)", line.strip())
                if m and not line.startswith(("#", "//")):
                    cache[m.group(1)] = m.group(2)
    return Build(commands, cache)


def _cmake_truthy(value) -> bool:
    v = (value or "").strip().lower()
    return not (v in _CMAKE_FALSE or v.endswith("-notfound"))


def run_kernel_tus(src: Sources, build: Build, findings: list):
    for tu, spec in sorted(KERNEL_TU_FLAGS.items()):
        path = os.path.join(src.root, tu)
        if not os.path.isfile(path):
            continue  # tier not present in this tree
        cmd = build.commands.get(os.path.realpath(path))
        if cmd is not None:
            for flag in spec["flags"]:
                if not re.search(re.escape(flag) + r"(\s|$)", cmd):
                    findings.append(Finding(
                        "kernel-tu", tu, 1,
                        f"compiled without {flag} — the per-TU "
                        "COMPILE_OPTIONS in src/CMakeLists.txt lost its "
                        "ISA flag"))
            continue
        option = spec["option_var"]
        if option and build.cache.get(option, "").strip().upper() == "OFF":
            continue  # deliberately disabled tier
        if not all(_cmake_truthy(build.cache.get(v))
                   for v in spec["probe_vars"]):
            continue  # compiler cannot build this tier
        findings.append(Finding(
            "kernel-tu", tu, 1,
            "SIMD TU missing from compile_commands.json although its "
            "compiler-flag probes passed — the build silently dropped "
            "this kernel tier"))


def run_build_coverage(src: Sources, build: Build, findings: list):
    for path in src.walk(["src"]):
        # [kernel-tu] owns the SIMD TUs, which a gated-off tier omits.
        if not path.endswith((".cc", ".cpp")) or path in KERNEL_TU_FLAGS:
            continue
        if os.path.realpath(os.path.join(src.root, path)) \
                not in build.commands:
            findings.append(Finding(
                "build-coverage", path, 1,
                "translation unit is not in compile_commands.json — "
                "orphaned files dodge every compiled check"))


def run_build_passes(src: Sources, build: Build, findings: list):
    run_kernel_tus(src, build, findings)
    run_build_coverage(src, build, findings)


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------


def apply_baseline(findings, baseline_path, today=None):
    today = today or datetime.date.today()
    try:
        with open(baseline_path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError:
        return findings  # no baseline: nothing suppressed
    out = []
    entries = data.get("entries", [])
    used = set()
    by_fp = {}
    for e in entries:
        by_fp[e["fingerprint"]] = e
    for f in findings:
        e = by_fp.get(f.fingerprint)
        if e is None:
            out.append(f)
            continue
        used.add(e["fingerprint"])
        try:
            expires = datetime.date.fromisoformat(e["expires"])
        except (KeyError, ValueError):
            out.append(Finding(
                f.rule, f.path, f.line,
                f"baseline entry for '{f.fingerprint}' has no valid "
                "'expires' date", f.fingerprint + ":badexpiry"))
            continue
        if expires < today:
            out.append(Finding(
                f.rule, f.path, f.line,
                f"baseline entry expired {e['expires']}: {f.message} "
                "— fix it or re-justify with a new expiry",
                f.fingerprint))
        else:
            f.baselined = True
            out.append(f)
    for e in entries:
        if e["fingerprint"] not in used:
            out.append(Finding(
                "baseline", os.path.basename(baseline_path), 1,
                f"stale baseline entry '{e['fingerprint']}' matches no "
                "finding — remove it",
                "baseline:stale:" + e["fingerprint"]))
    return out


# --------------------------------------------------------------------------
# Program construction
# --------------------------------------------------------------------------


def build_program(root, files, spec, verbose=False):
    prog = Program()
    for path in files:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if any(fnmatch.fnmatch(rel, pat) or rel == pat
               for pat in spec.skip):
            continue
        try:
            ir = parse_file(path)
        except Exception as e:
            raise RuntimeError(f"frontend failed on {rel}: {e}") from e
        ir.path = rel
        for f in ir.functions:
            f.path = rel
        for c in ir.classes.values():
            c.path = rel
        prog.add_file(ir)
        if verbose:
            print(f"  parsed {rel}: {len(ir.functions)} functions, "
                  f"{len(ir.classes)} classes")
    prog.link()
    return prog


def collect_files(root, build: Build, spec):
    roots = set(spec.roots) | set(spec.discard_roots)
    files = set()
    for path in build.commands:
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        if rel.startswith(".."):
            continue
        if any(rel.startswith(r.rstrip("/") + "/") for r in roots):
            files.add(path)
    # headers are not TUs; pull in every header under the scoped roots
    files |= {os.path.realpath(os.path.join(root, p))
              for p in Sources(root).walk(sorted(roots)) if p.endswith(".h")}
    return sorted(files)


def run_passes(prog, spec, root):
    an = Analysis(prog, spec)
    findings = []
    run_lock_order(an, spec.roots, findings)
    run_epoch_pin(an, spec.roots, findings)
    run_discard(an, spec.discard_roots, root, findings)
    return an, findings


# --------------------------------------------------------------------------
# Debug helpers
# --------------------------------------------------------------------------


def dump_locks(an):
    sites = {}
    for fn in an.prog.functions:
        if not fn.has_body:
            continue
        for ev in fn.events:
            if ev.kind == "acquire":
                sites.setdefault(ev.lock, []).append(
                    f"{fn.path}:{ev.line} ({fn.qname})")
    for ident in sorted(sites):
        print(f"{ident}")
        for s in sites[ident][:4]:
            print(f"    {s}")


def dump_edges(an):
    observed = {}
    sink = []
    for fn in an.prog.functions:
        if not fn.has_body or not _in_scope(fn.path, an.spec.roots):
            continue
        if fn.no_tsa:
            continue
        _simulate(an, fn, observed, sink)
    for (a, b), sites in sorted(observed.items()):
        for path, (line, note) in sorted(sites.items()):
            print(f"{a} -> {b}    [{path}:{line}{note}]")


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------


# Build-pass scenarios over selftest/tree/: every .cc of the tree is
# compiled with -O2 plus its ISA flags, then the overrides replace a TU's
# flags (None drops it from the build) under the given CMake cache. Each
# scenario must report exactly the listed (rule, path) findings.
_AVX2, _AVX512 = sorted(KERNEL_TU_FLAGS)
_PROBES = {v: "1" for tu in KERNEL_TU_FLAGS.values()
           for v in tu["probe_vars"]}
_AUTO = {**_PROBES, "HAMMING_AVX512": "AUTO"}
BUILD_SCENARIOS = [
    ("every TU built on its flags", {}, _AUTO, set()),
    ("AVX-512 tier switched off", {_AVX512: None},
     {**_PROBES, "HAMMING_AVX512": "OFF"}, set()),
    ("AVX-512 flag probe failed", {_AVX512: None},
     {**_AUTO, "HAMMING_CXX_HAS_MAVX512F": "0"}, set()),
    ("a tests/ TU outside the build", {"tests/test_orphan_module.cc": None},
     _AUTO, set()),
    ("AVX2 TU lost -mavx2", {_AVX2: "-O2"}, _AUTO, {("kernel-tu", _AVX2)}),
    ("AVX-512 TU dropped although its probes passed", {_AVX512: None},
     _AUTO, {("kernel-tu", _AVX512)}),
    ("a src/ TU outside the build", {"src/ops/live_module.cc": None},
     _AUTO, {("build-coverage", "src/ops/live_module.cc")}),
]


def _scenario_build(tree, overrides, cache):
    flags = {p: " ".join(["-O2"] + KERNEL_TU_FLAGS.get(p, {}).get("flags", []))
             for p in Sources(tree).walk(["src", "tests", "bench"])
             if p.endswith(".cc")}
    flags.update(overrides)
    return Build({os.path.realpath(os.path.join(tree, p)): f"c++ {f} -c {p}"
                  for p, f in flags.items() if f is not None}, cache)


def self_test(tool_dir, repo_root):
    """Negative tests: every pass must fire on its seeded fixture and
    stay silent on the clean ones; the baseline machinery must suppress,
    expire, and flag staleness correctly."""
    st_dir = os.path.join(tool_dir, "selftest")
    spec = load_spec(os.path.join(st_dir, "spec.toml"))
    files = sorted(
        os.path.join(st_dir, n) for n in os.listdir(st_dir)
        if n.endswith((".cc", ".h")))
    compiled_fixture = os.path.join(repo_root, "tests",
                                    "test_analyze_fixtures.cc")
    if os.path.isfile(compiled_fixture):
        files.append(compiled_fixture)
    # fixture files are analyzed under a pseudo 'src/' root so the
    # scoped passes treat them like production code
    prog = Program()
    for path in files:
        ir = parse_file(path)
        ir.path = "src/" + os.path.basename(path)
        for f in ir.functions:
            f.path = ir.path
        for c in ir.classes.values():
            c.path = ir.path
        prog.add_file(ir)
    prog.link()
    _, findings = run_passes(prog, spec, st_dir)
    # the token passes read selftest/tree/, a miniature repository
    tree = os.path.join(st_dir, "tree")
    run_token_passes(Sources(tree), findings)

    expected = {
        # file -> list of (rule, message substring) that MUST fire
        "src/bad_lock_cycle.cc": [
            ("lock-order", "undeclared lock-order edge")],
        "spec.toml": [
            ("lock-order", "cycle")],
        "src/bad_undeclared_edge.cc": [
            ("lock-order", "undeclared lock-order edge")],
        "src/bad_unknown_lock.cc": [
            ("lock-order", "no [[lock]] entry")],
        "src/bad_leaf_edge.cc": [
            ("lock-order", "leaf lock")],
        "src/bad_double_acquire.cc": [
            ("lock-order", "already held")],
        "src/bad_callback_under_lock.cc": [
            ("lock-order", "user callback")],
        "src/bad_wait_two_locks.cc": [
            ("lock-order", "CondVar wait")],
        "src/bad_pin_then_lock.cc": [
            ("epoch-pin", "only pin_safe locks")],
        "src/bad_pin_callback.cc": [
            ("epoch-pin", "user callback")],
        "src/bad_pin_wait.cc": [
            ("epoch-pin", "CondVar wait while an epoch")],
        "src/bad_pin_blocking_call.cc": [
            ("epoch-pin", "block")],
        "src/bad_discard_plain.cc": [
            ("discard", "result of 'MightFail'")],
        "src/bad_discard_ternary.cc": [
            ("discard", "discarded")],
        "src/bad_discard_comma.cc": [
            ("discard", "discarded")],
        "src/bad_discard_typedef.cc": [
            ("discard", "discarded")],
        "src/bad_discard_void.cc": [
            ("discard", "justifying comment")],
        "src/test_analyze_fixtures.cc": [
            ("lock-order", "undeclared lock-order edge")],
        # selftest/tree/ findings also name the line they must be on
        "src/kernels/bad_layer.h": [
            ("layering", "edge kernels -> mapreduce", 3),
            ("layering", "transitively reaches mapreduce", 1)],
        "src/kernels/bad_layer_late.cc": [
            ("layering", "edge kernels -> mapreduce", 5)],
        "src/observability/bad_leaf.cc": [
            ("layering", "edge observability -> storage", 2)],
        "src/knn/bad_kernels_edge.cc": [
            ("layering", "edge knn -> kernels", 2)],
        "src/index/bad_sync.cc": [
            ("raw-sync", "'#include <mutex>'", 2),
            ("raw-sync", "'std::mutex'", 3)],
        "src/index/bad_sync_macro.cc": [
            ("raw-sync", "'std::lock_guard'", 3),
            ("raw-sync", "'std::mutex'", 4),
            ("raw-sync", "'std::condition_variable_any'", 6)],
        "src/ops/bad_metric.cc": [
            ("metric-args", "'++ x'", 2)],
        "src/ops/bad_metric2.cc": [
            ("metric-args", "'x += 2'", 2)],
        "src/ops/bad_metric_name.cc": [
            ("metric-name", "lowercase dotted identifiers", 2)],
        "src/ops/bad_metric_name2.cc": [
            ("metric-name", "is not declared", 2)],
        "src/ops/bad_metric_macro.cc": [
            ("metric-name", "lowercase dotted identifiers", 2)],
        "src/ops/orphan_module.h": [
            ("orphan-module", "give the module a caller", 1)],
    }
    clean = {
        "src/good_scoped_sequential.cc",
        "src/good_declared_edges.cc",
        "src/good_release_branch.cc",
        "src/good_pin_leaf.cc",
        "src/good_discard.cc",
        "src/support.h",
        "src/ops/orphan_module.cc",
        "tests/test_orphan_module.cc",
        "src/kernels/good_layer.h",
        "src/index/good_sync.cc",
        "src/ops/good_metric.cc",
        "src/ops/good_metric_name.cc",
        "src/observability/metric_names.h",
        "src/ops/live_module.h",
        "src/ops/live_module.cc",
        "bench/bench_live_module.cc",
        "src/code/binary_code.h",
        "src/mapreduce/job.h",
        "src/storage/file_io.h",
        _AVX2,
        _AVX512,
    }
    failures = []
    by_file = {}
    for f in findings:
        by_file.setdefault(f.path, []).append(f)
    for path, wants in expected.items():
        got = by_file.get(path, [])
        for rule, frag, *line in wants:
            if not any(g.rule == rule and frag in g.message and
                       line in ([], [g.line]) for g in got):
                failures.append(
                    f"{path}: expected a [{rule}] finding containing "
                    f"'{frag}'" + (f" on line {line[0]}" if line else "") +
                    "; got: " +
                    ("; ".join(str(g) for g in got) or "nothing"))
    for path in clean:
        extra = [g for g in by_file.get(path, [])]
        if extra:
            failures.append(
                f"{path}: expected clean, got: " +
                "; ".join(str(g) for g in extra))
    for path in by_file:
        if path not in expected and path not in clean:
            failures.append(
                f"unexpected findings in unlisted fixture {path}: " +
                "; ".join(str(g) for g in by_file[path]))

    # --- a spec whose declared order is itself cyclic must be rejected
    try:
        load_spec(os.path.join(st_dir, "spec_cycle.toml"))
        failures.append("spec_cycle.toml: expected SpecError for the "
                        "declared a->b->a cycle, but the spec loaded")
    except SpecError as e:
        if "cycle" not in str(e):
            failures.append(
                f"spec_cycle.toml: SpecError does not mention the "
                f"cycle: {e}")

    # --- baseline machinery
    sample = next((f for f in findings if f.rule == "discard"), None)
    if sample is None:
        failures.append("no discard finding available to exercise the "
                        "baseline machinery")
    else:
        with tempfile.TemporaryDirectory(
                prefix="hamming-analyze-bl-") as tmp:
            def write_bl(entries):
                p = os.path.join(tmp, "baseline.json")
                with open(p, "w", encoding="utf-8") as f:
                    json.dump({"schema": 1, "entries": entries}, f)
                return p

            fresh = [Finding(sample.rule, sample.path, sample.line,
                             sample.message, sample.fingerprint)]
            r = apply_baseline(fresh, write_bl(
                [{"fingerprint": sample.fingerprint,
                  "expires": "2099-01-01", "reason": "selftest"}]))
            if not (len(r) == 1 and r[0].baselined):
                failures.append("baseline: unexpired entry did not "
                                "suppress its finding")
            fresh = [Finding(sample.rule, sample.path, sample.line,
                             sample.message, sample.fingerprint)]
            r = apply_baseline(fresh, write_bl(
                [{"fingerprint": sample.fingerprint,
                  "expires": "2000-01-01", "reason": "selftest"}]))
            if not any("expired" in f.message and not f.baselined
                       for f in r):
                failures.append("baseline: expired entry did not fail")
            r = apply_baseline([], write_bl(
                [{"fingerprint": "no:such:finding",
                  "expires": "2099-01-01", "reason": "selftest"}]))
            if not any(f.rule == "baseline" and "stale" in f.message
                       for f in r):
                failures.append("baseline: stale entry did not fail")

    for what, overrides, cache, want in BUILD_SCENARIOS:
        got = []
        run_build_passes(Sources(tree), _scenario_build(tree, overrides,
                                                        cache), got)
        findings += got
        if {(f.rule, f.path) for f in got} != want:
            failures.append(
                f"build scenario '{what}': expected "
                f"{sorted(want) or 'nothing'}, got: " +
                ("; ".join(str(g) for g in got) or "nothing"))

    if failures:
        print("analyze --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    n_rules = len({f.rule for f in findings})
    print(f"analyze self-test OK: {len(expected)} seeded fixtures "
          f"fired across {n_rules} rules, {len(clean)} clean fixtures "
          f"silent, {len(BUILD_SCENARIOS)} build scenarios held, "
          "baseline expiry/staleness verified")
    return 0


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two dirs up from here)")
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--spec", default=None,
                    help="lock-order spec (default: lock_order.toml "
                         "next to this script)")
    ap.add_argument("--baseline", default=None,
                    help="findings baseline (default: baseline.json "
                         "next to this script)")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--list-locks", action="store_true",
                    help="print every lock identity with example sites")
    ap.add_argument("--dump-edges", action="store_true",
                    help="print the observed acquisition edges")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    tool_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or
                           os.path.join(tool_dir, "..", ".."))
    if args.self_test:
        return self_test(tool_dir, root)

    spec_path = args.spec or os.path.join(tool_dir, "lock_order.toml")
    baseline_path = args.baseline or os.path.join(tool_dir,
                                                  "baseline.json")
    try:
        spec = load_spec(spec_path)
    except (SpecError, OSError) as e:
        print(f"analyze: bad spec {spec_path}: {e}", file=sys.stderr)
        return 2
    try:
        if not os.path.isdir(os.path.join(root, "src")):
            raise RuntimeError(f"{root} has no src/ directory")
        build = load_build(os.path.join(root, args.build_dir))
        prog = build_program(root, collect_files(root, build, spec), spec,
                             verbose=args.verbose)
        an, findings = run_passes(prog, spec, root)
    except RuntimeError as e:
        print(f"analyze: {e}", file=sys.stderr)
        return 2
    if args.list_locks:
        dump_locks(an)
        return 0
    if args.dump_edges:
        dump_edges(an)
        return 0
    src = Sources(root, prog)
    run_token_passes(src, findings)
    run_build_passes(src, build, findings)
    findings = apply_baseline(findings, baseline_path)
    hard = [f for f in findings if not f.baselined]
    soft = [f for f in findings if f.baselined]
    for f in soft:
        print(f"note (baselined): {f}")
    for f in sorted(hard, key=lambda f: (f.path, f.line, f.rule)):
        print(f)
    n_fn = sum(1 for f in prog.functions if f.has_body)
    if hard:
        print(f"\nanalyze: {len(hard)} finding(s) over "
              f"{len(prog.files)} files ({n_fn} function bodies)",
              file=sys.stderr)
        return 1
    print(f"analyze OK: {len(prog.files)} files, {n_fn} function "
          f"bodies, {len(spec.locks)} declared locks, "
          f"{len(spec.orders)} declared edges"
          + (f", {len(soft)} baselined" if soft else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
