#!/usr/bin/env python3
"""Repo-invariant linter for the hamming-mr tree.

Self-contained (python3 stdlib only, no LLVM dev deps): it works from a
plain source scan plus, when available, the build's compile_commands.json
(used to verify every src/ translation unit is actually part of the
build, so none of the other checks can be dodged by orphaning a file).

Enforced invariants (rule ids in brackets):

  [layering]       The include-graph layering DAG over src/. Every
                   directory->directory include edge must appear in
                   ALLOWED_EDGES below; additionally the three named
                   reachability rules hold transitively:
                   kernels/common/code never reach mapreduce, mapreduce
                   never reaches index/mrjoin, and observability is a
                   leaf above common (single documented exception:
                   trace.{h,cc} implement the runtime's JobObserver).
  [raw-sync]       No raw std::mutex / std::condition_variable /
                   std::thread (or their lock adapters / headers)
                   outside src/common/ — all synchronization goes
                   through the annotated wrappers in common/sync.h.
  [metric-args]    No side-effecting expressions (++/--/assignment)
                   inside HAMMING_METRIC_* macro arguments; the macros
                   expand to ((void)0) under -DHAMMING_METRICS_DISABLED
                   and must not change behaviour when they vanish.
  [metric-name]    Every string-literal metric registration
                   (Counter/Gauge/Histogram("...")) under src/ uses a
                   lowercase dotted identifier that is declared in the
                   central src/observability/metric_names.h — one
                   place to see the whole namespace, no drive-by
                   families. Dynamic names built from a prefix
                   expression (QueryStatsHistograms, epoch.*) don't
                   match the literal pattern and are exempt by design.
  [orphan-module]  Every header under src/ is #included by a file
                   under src/, bench/, perfbench/ or examples/ other
                   than its own .cc. Includes from tests/ and fuzz/ do
                   not count: a module that only its own tests call is
                   dead weight, and it goes (or gains a real caller).
  [kernel-tu]      SIMD kernel translation units keep their -m<isa>
                   flags: every TU in KERNEL_TU_FLAGS that appears in
                   compile_commands.json must be compiled with all of
                   its listed flags, and a TU *missing* from the build
                   is a violation unless CMakeCache.txt shows it was
                   deliberately gated off (HAMMING_AVX512=OFF or a
                   failed compiler-flag probe). This stops a CMake
                   refactor from silently dropping a kernel tier or its
                   -march handling.

The old [nodiscard] rule (attribute presence on Status/Result plus
justified (void)-discards) moved to the semantic analyzer
(tools/analyze/analyze.py, rule id [discard]): the regex version could
not see through typedefs, ternaries, or comma expressions, and its
fixtures now live in tools/analyze/selftest/.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.

`--self-test` runs the linter against built-in fixtures (one seeded
violation per rule plus clean counterparts) and fails loudly if any rule
stops firing — this is the negative test wired into scripts/check.sh.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Layering DAG: the complete allowlist of directory->directory include
# edges inside src/. An edge not listed here is a violation even if it
# would not create a cycle — growth of the graph is an explicit decision
# made by editing this table (and DESIGN.md §4.12 alongside it).
# --------------------------------------------------------------------------

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
    "knn": {"code", "common", "dataset", "hashing", "index", "kernels"},
    "ops": {"code", "common", "dataset", "hashing", "index", "join",
            "kernels"},
    "storage": {"common", "hashing", "index", "ops"},
    "mapreduce": {"common", "observability", "storage"},
    "mrjoin": {"code", "common", "dataset", "hashing", "index", "join",
               "knn", "mapreduce", "observability"},
    "serving": {"code", "common", "index", "observability"},
}

# Per-file exceptions to ALLOWED_EDGES, as {relative path: extra target
# dirs}. TraceCollector *is* an mr::JobObserver — the adapter between the
# runtime's event stream and the Chrome-trace export lives on the
# observability side so the runtime stays export-format-agnostic.
FILE_EDGE_EXCEPTIONS = {
    "observability/trace.h": {"mapreduce"},
    "observability/trace.cc": {"mapreduce"},
}

# Named reachability rules, checked over the transitive closure of the
# file-level include graph (so a legal direct edge cannot smuggle in an
# illegal layer two hops away).
NO_REACH = [
    ({"kernels", "common", "code"}, {"mapreduce"}),
    ({"mapreduce"}, {"index", "mrjoin"}),
]

SRC_EXTS = (".h", ".cc", ".cpp")

RAW_SYNC_PATTERN = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable(_any)?"
    r"|thread|jthread|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(mutex|thread|condition_variable|shared_mutex)>"
)

METRIC_CALL_PATTERN = re.compile(r"\bHAMMING_METRIC_(ADD|SET|OBSERVE)\s*\(")

# ++/--, compound assignment, and simple assignment (but not the
# comparisons ==, <=, >=, !=).
SIDE_EFFECT_PATTERN = re.compile(
    r"\+\+|--|<<=|>>=|[+\-*/%&|^]=(?!=)|(?<![=!<>+\-*/%&|^])=(?!=)")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments and (unless keep_strings) string/char
    literals, preserving newlines and column positions so reported line
    numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(c if keep_strings else " ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(c if keep_strings else " ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(c if keep_strings else " ")
                i += 1
            else:
                out.append(c if keep_strings or c == "\n" else " ")
                i += 1
    return "".join(out)


def iter_source_files(root: str, subdirs):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SRC_EXTS):
                    yield os.path.join(dirpath, name)


def rel(root: str, path: str) -> str:
    return os.path.relpath(path, root).replace(os.sep, "/")


INCLUDE_PATTERN = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def quoted_includes(raw_text: str):
    """Yields (line_number, include_path) for every quoted include.

    Works on the *raw* text — the comment/string stripper would blank the
    quoted path. The pattern anchors '#include' at line start, so
    '// #include ...' in prose never matches."""
    for m in INCLUDE_PATTERN.finditer(raw_text):
        line = raw_text.count("\n", 0, m.start()) + 1
        yield line, m.group(1)


# --------------------------------------------------------------------------
# Rule: layering
# --------------------------------------------------------------------------


def check_layering(root: str, violations: list):
    src = os.path.join(root, "src")
    # file-level graph over src/: rel path -> set of included rel paths
    graph = {}
    edges = []  # (rel_file, line, from_dir, to_dir, include_path)
    for path in iter_source_files(root, ["src"]):
        r = rel(src, path)
        from_dir = r.split("/")[0]
        if from_dir not in ALLOWED_EDGES:
            violations.append(Violation(
                rel(root, path), 1, "layering",
                f"directory src/{from_dir} is not in the layering table; "
                "add it to ALLOWED_EDGES in tools/lint/lint.py"))
            continue
        text = open(path, encoding="utf-8").read()
        graph[r] = set()
        for line, inc in quoted_includes(text):
            to_dir = inc.split("/")[0]
            if to_dir not in ALLOWED_EDGES:
                continue  # not a src/ include (gtest, etc.)
            graph[r].add(inc)
            if to_dir != from_dir:
                edges.append((r, line, from_dir, to_dir, inc))

    for r, line, from_dir, to_dir, inc in edges:
        allowed = ALLOWED_EDGES[from_dir] | FILE_EDGE_EXCEPTIONS.get(r, set())
        if to_dir not in allowed:
            violations.append(Violation(
                f"src/{r}", line, "layering",
                f'include "{inc}" creates edge {from_dir} -> {to_dir}, '
                "which is not in the layering DAG"))

    # Transitive reachability over headers.
    reach_cache = {}

    def reachable_dirs(node: str, stack=()):
        if node in reach_cache:
            return reach_cache[node]
        if node in stack:
            return set()  # include cycle; reported implicitly elsewhere
        dirs = set()
        for inc in graph.get(node, ()):
            dirs.add(inc.split("/")[0])
            dirs |= reachable_dirs(inc, stack + (node,))
        reach_cache[node] = dirs
        return dirs

    for r in sorted(graph):
        from_dir = r.split("/")[0]
        if r in FILE_EDGE_EXCEPTIONS:
            continue
        reached = reachable_dirs(r)
        for sources, targets in NO_REACH:
            if from_dir in sources:
                hit = (reached & targets) - FILE_EDGE_EXCEPTIONS.get(r, set())
                # Drop targets only reachable through exception files.
                if hit and not _only_via_exceptions(graph, r, hit):
                    violations.append(Violation(
                        f"src/{r}", 1, "layering",
                        f"{from_dir} transitively reaches "
                        f"{', '.join(sorted(hit))} (forbidden layer)"))


def _only_via_exceptions(graph, start, targets):
    """True if every path from start into `targets` passes through a file
    listed in FILE_EDGE_EXCEPTIONS (i.e. the reach is already blessed)."""
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node in seen or node in FILE_EDGE_EXCEPTIONS and node != start:
            continue
        seen.add(node)
        for inc in graph.get(node, ()):
            if inc.split("/")[0] in targets:
                return False
            stack.append(inc)
    return True


# --------------------------------------------------------------------------
# Rule: orphan-module
# --------------------------------------------------------------------------

# The trees whose includes keep a src/ header alive. tests/ and fuzz/ are
# left out on purpose: they exercise modules, they are not callers.
LIVE_INCLUDER_DIRS = ["src", "bench", "perfbench", "examples"]


def check_orphan_modules(root: str, violations: list):
    src = os.path.join(root, "src")
    includers = {}  # include path (relative to src/) -> including files
    for path in iter_source_files(root, LIVE_INCLUDER_DIRS):
        for _, inc in quoted_includes(open(path, encoding="utf-8").read()):
            includers.setdefault(inc, set()).add(rel(root, path))
    for path in iter_source_files(root, ["src"]):
        if not path.endswith(".h"):
            continue
        header = rel(src, path)
        own_cc = "src/" + header[:-len(".h")] + ".cc"
        if not includers.get(header, set()) - {own_cc}:
            violations.append(Violation(
                rel(root, path), 1, "orphan-module",
                "no file under src/, bench/, perfbench/ or examples/ "
                "includes this header except its own .cc (tests/ and "
                "fuzz/ do not count) — give the module a caller or "
                "delete it"))


# --------------------------------------------------------------------------
# Rule: raw-sync
# --------------------------------------------------------------------------


def check_raw_sync(root: str, violations: list):
    for path in iter_source_files(
            root, ["src", "tests", "bench", "examples", "fuzz"]):
        r = rel(root, path)
        if r.startswith("src/common/"):
            continue  # the one directory allowed to touch std primitives
        text = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for i, line in enumerate(text.split("\n"), start=1):
            m = RAW_SYNC_PATTERN.search(line)
            if m:
                violations.append(Violation(
                    r, i, "raw-sync",
                    f"raw '{m.group(0).strip()}' outside src/common/ — use "
                    "the annotated wrappers in common/sync.h "
                    "(Mutex/MutexLock/CondVar/Thread)"))


# --------------------------------------------------------------------------
# Rule: metric-name
# --------------------------------------------------------------------------

METRIC_NAMES_HEADER = "src/observability/metric_names.h"

# A string-literal first argument to a registration call. Dynamic names
# (prefix + ".suffix", a variable) don't start with a quote right after
# the paren and therefore never match — they are the blessed escape
# hatch for per-instance families.
METRIC_REGISTRATION_PATTERN = re.compile(
    r'\b(Counter|Gauge|Histogram)\s*\(\s*"([^"]*)"\s*\)')

# Lowercase dotted identifier: at least two dot-separated segments of
# [a-z0-9_], starting with a letter ("serving.queue_wait_us").
METRIC_NAME_FORMAT = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


def _declared_metric_names(root: str):
    path = os.path.join(root, METRIC_NAMES_HEADER)
    if not os.path.isfile(path):
        return None
    return set(re.findall(r'"([^"]+)"', open(path, encoding="utf-8").read()))


def check_metric_names(root: str, violations: list):
    declared = _declared_metric_names(root)
    for path in iter_source_files(root, ["src"]):
        r = rel(root, path)
        if r == METRIC_NAMES_HEADER:
            continue
        text = strip_comments_and_strings(
            open(path, encoding="utf-8").read(), keep_strings=True)
        for m in METRIC_REGISTRATION_PATTERN.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            kind, name = m.group(1), m.group(2)
            if not METRIC_NAME_FORMAT.match(name):
                violations.append(Violation(
                    r, line, "metric-name",
                    f'{kind}("{name}") — metric names are lowercase '
                    'dotted identifiers ("family.metric_name")'))
            elif declared is None:
                violations.append(Violation(
                    r, line, "metric-name",
                    f'{kind}("{name}") but {METRIC_NAMES_HEADER} is '
                    "missing — literal metric names must be declared "
                    "there"))
            elif name not in declared:
                violations.append(Violation(
                    r, line, "metric-name",
                    f'{kind}("{name}") is not declared in '
                    f"{METRIC_NAMES_HEADER} — add the constant there "
                    "(one place to see the whole metric namespace)"))


# --------------------------------------------------------------------------
# Rule: metric-args
# --------------------------------------------------------------------------


def _strip_preprocessor(text: str) -> str:
    """Blanks preprocessor directives (with backslash continuations) so
    the macro *definitions* in metrics.h don't trip the call-site scan."""
    out_lines = []
    in_directive = False
    for line in text.split("\n"):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            out_lines.append("")
        else:
            out_lines.append(line)
    return "\n".join(out_lines)


def _split_top_level_args(text: str, start: int):
    """`start` indexes the opening paren; returns (args, end_index) or
    (None, start) if the parens never balance."""
    depth = 0
    args = []
    current = []
    i = start
    while i < len(text):
        c = text[i]
        if c in "([{":
            depth += 1
            if depth > 1:
                current.append(c)
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append("".join(current))
                return args, i
            current.append(c)
        elif c == "," and depth == 1:
            args.append("".join(current))
            current = []
        else:
            current.append(c)
        i += 1
    return None, start


def check_metric_args(root: str, violations: list):
    for path in iter_source_files(
            root, ["src", "tests", "bench", "examples", "fuzz"]):
        r = rel(root, path)
        text = _strip_preprocessor(
            strip_comments_and_strings(open(path, encoding="utf-8").read()))
        for m in METRIC_CALL_PATTERN.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            args, _ = _split_top_level_args(text, m.end() - 1)
            if args is None:
                violations.append(Violation(
                    r, line, "metric-args",
                    "unbalanced parentheses in HAMMING_METRIC_ call"))
                continue
            for arg in args:
                if SIDE_EFFECT_PATTERN.search(arg.strip()):
                    violations.append(Violation(
                        r, line, "metric-args",
                        f"side-effecting expression '{arg.strip()}' in "
                        "HAMMING_METRIC_ argument — it vanishes under "
                        "-DHAMMING_METRICS_DISABLED"))


# --------------------------------------------------------------------------
# compile_commands.json coverage
# --------------------------------------------------------------------------


# SIMD translation units and the ISA flags their compile command must
# carry, plus the CMake cache variables that legitimately gate each TU
# out of the build (failed compiler-flag probes; the explicit OFF knob).
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


def _cmake_truthy(value) -> bool:
    if value is None:
        return False
    v = value.strip().lower()
    return not (v in _CMAKE_FALSE or v.endswith("-notfound"))


def _read_cmake_cache(build_dir: str) -> dict:
    cache = {}
    path = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(path):
        return cache
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if not line or line.startswith(("#", "//")):
            continue
        m = re.match(r"([^:=]+):[^=]*=(.*)", line)
        if m:
            cache[m.group(1)] = m.group(2)
    return cache


def check_kernel_tus(root: str, build_dir: str, violations: list):
    cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(cc_path):
        return  # the coverage check already reported the missing export
    with open(cc_path, encoding="utf-8") as f:
        entries = json.load(f)
    by_file = {}
    for e in entries:
        cmd = e.get("command") or " ".join(e.get("arguments", []))
        by_file[os.path.realpath(e["file"])] = cmd
    cache = _read_cmake_cache(build_dir)
    for tu, spec in sorted(KERNEL_TU_FLAGS.items()):
        path = os.path.join(root, tu)
        if not os.path.isfile(path):
            continue  # tier not present in this tree
        cmd = by_file.get(os.path.realpath(path))
        if cmd is not None:
            for flag in spec["flags"]:
                if not re.search(re.escape(flag) + r"(\s|$)", cmd):
                    violations.append(Violation(
                        tu, 1, "kernel-tu",
                        f"compiled without {flag} — the per-TU "
                        "COMPILE_OPTIONS in src/CMakeLists.txt lost its "
                        "ISA flag"))
            continue
        option = spec["option_var"]
        if option is not None and cache.get(option, "").strip().upper() == \
                "OFF":
            continue  # deliberately disabled tier
        if spec["probe_vars"] and not all(
                _cmake_truthy(cache.get(v)) for v in spec["probe_vars"]):
            continue  # compiler cannot build this tier
        violations.append(Violation(
            tu, 1, "kernel-tu",
            "SIMD TU missing from compile_commands.json although its "
            "compiler-flag probes passed — the build silently dropped "
            "this kernel tier"))


def check_build_coverage(root: str, build_dir: str, violations: list):
    cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(cc_path):
        print(f"lint: note: {cc_path} not found; skipping build-coverage "
              "check (configure with cmake to export it)", file=sys.stderr)
        return
    with open(cc_path, encoding="utf-8") as f:
        entries = json.load(f)
    compiled = {os.path.realpath(e["file"]) for e in entries}
    for path in iter_source_files(root, ["src"]):
        if not path.endswith((".cc", ".cpp")):
            continue
        if os.path.realpath(path) not in compiled:
            violations.append(Violation(
                rel(root, path), 1, "build-coverage",
                "translation unit is not in compile_commands.json — "
                "orphaned files dodge every compiled check"))


# --------------------------------------------------------------------------
# Self-test: seeded violations must fire, clean fixtures must not.
# --------------------------------------------------------------------------

FIXTURES = {
    # (relative path, contents, expected rule or None for clean)
    "src/kernels/bad_layer.h":
        ('#pragma once\n#include "mapreduce/job.h"\n', "layering"),
    "src/observability/bad_leaf.cc":
        ('#include "storage/file_io.h"\n', "layering"),
    "src/index/bad_sync.cc":
        ("#include <mutex>\nstd::mutex mu;\n", "raw-sync"),
    "src/ops/bad_metric.cc":
        ("void f(int x) { HAMMING_METRIC_ADD(reg, id, ++x); }\n",
         "metric-args"),
    "src/ops/bad_metric2.cc":
        ("void f(int x) { HAMMING_METRIC_SET(reg, id, x += 2); }\n",
         "metric-args"),
    # The (void)-discard fixtures that used to live here moved with the
    # [nodiscard] rule to tools/analyze/selftest/ (bad_discard_*.cc,
    # good_discard.cc), asserted by `analyze.py --self-test`.
    "src/ops/bad_metric_name.cc":
        ('void f() { auto id = reg->Counter("Serving.QueueDepth"); }\n',
         "metric-name"),
    "src/ops/bad_metric_name2.cc":
        ('void f() { auto id = reg->Histogram("serving.undeclared_hist"); }'
         "\n", "metric-name"),
    # A module only its own .cc and a test include.
    "src/ops/orphan_module.h": ("#pragma once\n", "orphan-module"),
    "src/ops/orphan_module.cc": ('#include "ops/orphan_module.h"\n', None),
    "tests/test_orphan_module.cc":
        ('#include "ops/orphan_module.h"\n', None),
    # Clean counterparts: none of these may fire.
    "src/kernels/good_layer.h":
        ('#pragma once\n#include "code/binary_code.h"\n', None),
    "src/index/good_sync.cc":
        ('#include "common/sync.h"\n'
         "// a comment mentioning std::mutex is fine\n"
         "hamming::Mutex mu;\n", None),
    "src/ops/good_metric.cc":
        ("void f(int x) { HAMMING_METRIC_ADD(reg, id, x <= 3 ? 1 : 2); }\n",
         None),
    "src/ops/good_metric_name.cc":
        ("void f(const std::string& prefix) {\n"
         '  auto id = reg->Counter("serving.accepted");\n'
         '  // dynamic family: no literal right after the paren, exempt\n'
         '  auto h = reg->Histogram(prefix + ".candidates");\n'
         "}\n", None),
    "src/observability/metric_names.h":
        ("#pragma once\n"
         "inline constexpr char kServingAccepted[] = "
         '"serving.accepted";\n', None),
    "src/ops/live_module.h": ("#pragma once\n", None),
    "src/ops/live_module.cc": ('#include "ops/live_module.h"\n', None),
    # A bench includes the live module and the clean headers no other
    # fixture includes, so none of them is an orphan.
    "bench/bench_live_module.cc":
        ('#include "ops/live_module.h"\n'
         '#include "kernels/good_layer.h"\n'
         '#include "observability/metric_names.h"\n', None),
    "src/code/binary_code.h": ("#pragma once\n", None),
    "src/mapreduce/job.h": ("#pragma once\n", None),
    "src/storage/file_io.h": ("#pragma once\n", None),
}


def _kernel_tu_self_test(failures: list):
    """Synthetic-fixture checks for [kernel-tu]: seeded violations (a
    dropped flag; a silently orphaned TU) must fire, the blessed
    configurations (flags present; tier gated off via cache) must not."""

    def run_scenario(compile_entries, cache_lines):
        with tempfile.TemporaryDirectory(
                prefix="hamming-lint-kerneltu-") as tmp:
            for tu in KERNEL_TU_FLAGS:
                path = os.path.join(tmp, tu)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write("// fixture\n")
            build = os.path.join(tmp, "build")
            os.makedirs(build)
            entries = [
                {"directory": build,
                 "command": f"/usr/bin/c++ {flags} -c {os.path.join(tmp, tu)}",
                 "file": os.path.join(tmp, tu)}
                for tu, flags in compile_entries.items()]
            with open(os.path.join(build, "compile_commands.json"), "w",
                      encoding="utf-8") as f:
                json.dump(entries, f)
            with open(os.path.join(build, "CMakeCache.txt"), "w",
                      encoding="utf-8") as f:
                f.write("\n".join(cache_lines) + "\n")
            violations = []
            check_kernel_tus(tmp, build, violations)
            return violations

    avx2 = "src/kernels/hamming_kernels_avx2.cc"
    avx512 = "src/kernels/hamming_kernels_avx512.cc"
    probes_on = ["HAMMING_CXX_HAS_MAVX2:INTERNAL=1",
                 "HAMMING_CXX_HAS_MAVX512F:INTERNAL=1",
                 "HAMMING_CXX_HAS_MAVX512BW:INTERNAL=1",
                 "HAMMING_CXX_HAS_MAVX512VPOPCNTDQ:INTERNAL=1"]
    good = {avx2: "-O2 -mavx2",
            avx512: "-O2 -mavx512f -mavx512bw -mavx512vpopcntdq"}

    # Clean: both TUs compiled with their full flag sets.
    hits = run_scenario(good, probes_on + ["HAMMING_AVX512:STRING=AUTO"])
    for v in hits:
        failures.append(f"false positive: {v}")

    # Clean: AVX-512 tier explicitly OFF, TU absent from the build.
    hits = run_scenario({avx2: "-O2 -mavx2"},
                        probes_on + ["HAMMING_AVX512:STRING=OFF"])
    for v in hits:
        failures.append(f"false positive (tier off): {v}")

    # Clean: failed probe gates the TU out.
    hits = run_scenario(
        {avx2: "-O2 -mavx2"},
        ["HAMMING_CXX_HAS_MAVX2:INTERNAL=1",
         "HAMMING_CXX_HAS_MAVX512F:INTERNAL=0",
         "HAMMING_AVX512:STRING=AUTO"])
    for v in hits:
        failures.append(f"false positive (failed probe): {v}")

    # Seeded: the AVX2 TU lost its -mavx2 flag.
    hits = run_scenario(
        {avx2: "-O2",
         avx512: "-O2 -mavx512f -mavx512bw -mavx512vpopcntdq"},
        probes_on + ["HAMMING_AVX512:STRING=AUTO"])
    if not any(v.rule == "kernel-tu" and v.path == avx2 for v in hits):
        failures.append(
            "seeded violation NOT detected: dropped -mavx2 flag should "
            "fire [kernel-tu]")

    # Seeded: AVX-512 TU silently absent although every probe passed.
    hits = run_scenario({avx2: "-O2 -mavx2"},
                        probes_on + ["HAMMING_AVX512:STRING=AUTO"])
    if not any(v.rule == "kernel-tu" and v.path == avx512 for v in hits):
        failures.append(
            "seeded violation NOT detected: orphaned AVX-512 TU should "
            "fire [kernel-tu]")


def self_test() -> int:
    failures = []
    _kernel_tu_self_test(failures)
    with tempfile.TemporaryDirectory(prefix="hamming-lint-selftest-") as tmp:
        for relpath, (contents, _) in FIXTURES.items():
            path = os.path.join(tmp, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        violations = run_checks(tmp, build_dir=None)
        by_file = {}
        for v in violations:
            by_file.setdefault(v.path.replace(os.sep, "/"), []).append(v)
        for relpath, (_, expected_rule) in sorted(FIXTURES.items()):
            hits = by_file.pop(relpath, [])
            if expected_rule is None:
                for v in hits:
                    failures.append(f"false positive: {v}")
            elif not any(v.rule == expected_rule for v in hits):
                failures.append(
                    f"seeded violation NOT detected: {relpath} should "
                    f"fire [{expected_rule}]")
        for relpath, hits in sorted(by_file.items()):
            for v in hits:
                failures.append(f"unexpected violation: {v}")
    if failures:
        print("lint --self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("lint --self-test passed: every seeded violation detected, "
          "no false positives")
    return 0


# --------------------------------------------------------------------------


def run_checks(root: str, build_dir) -> list:
    violations = []
    check_layering(root, violations)
    check_orphan_modules(root, violations)
    check_raw_sync(root, violations)
    check_metric_args(root, violations)
    check_metric_names(root, violations)
    if build_dir:
        check_build_coverage(root, build_dir, violations)
        check_kernel_tus(root, build_dir, violations)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up "
                        "from this script)")
    parser.add_argument("--build-dir", default=None,
                        help="build dir holding compile_commands.json "
                        "(default: <root>/build)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter against seeded-violation "
                        "fixtures and verify every rule fires")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.realpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"lint: error: {root} has no src/ directory", file=sys.stderr)
        return 2
    build_dir = args.build_dir or os.path.join(root, "build")

    violations = run_checks(root, build_dir)
    for v in violations:
        print(v)
    if violations:
        print(f"lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
