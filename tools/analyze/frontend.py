"""C++ micro-frontend for the repository checker.

The one place tools/analyze/analyze.py reads C++ text.  tokenize() yields
the token stream, #include list and directive bodies the token passes
read; the parser builds on it the IR of the semantic passes:
per-function event streams (lock acquisitions, releases,
condition-variable waits, calls, epoch pins, scope boundaries) plus
class/member/param type maps used to resolve lock identities and call
receivers.

The frontend is a self-contained tokenizer + structural parser, python3
stdlib only.  It is not a C++ parser; it is a micro-frontend tuned to
this repository's idiom (see DESIGN.md §4.16 for the modelled subset and
its documented approximations).

Modelled synchronization vocabulary (src/common/sync.h):
  MutexLock / ReleasableMutexLock RAII sites, manual Mutex::Lock /
  Unlock / TryLock, CondVar::Wait / WaitFor / WaitUntil,
  HAMMING_REQUIRES / HAMMING_NO_THREAD_SAFETY_ANALYSIS annotations, the
  HAMMING_METRIC_* macros (modelled as MetricsRegistry calls, which is
  what they expand to), and EpochPublisher pins.

Known, deliberate approximations (kept in sync with DESIGN.md):
  * Control flow is linear.  A Release()/Unlock() in a scope *deeper*
    than the acquisition is treated as branch-local: the lock is
    considered re-held once that scope exits (models the early-return
    idiom).  A release at the acquisition scope is permanent.
  * Lambdas are separate anonymous functions; their bodies are analyzed
    with the enclosing function's name/type environment, but their
    events are not attributed to the definition site (a lambda defined
    under a lock may run elsewhere).
  * Virtual dispatch resolves to every same-named method in the
    receiver's class hierarchy (base and derived), so observer
    interfaces pick up their concrete implementations.
"""

from __future__ import annotations

import bisect
import re

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_OPS3 = ("<<=", ">>=", "->*", "...", "<=>")
_OPS2 = ("->", "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
         "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--")

_KEYWORDS_NOT_CALLS = {
    "if", "while", "for", "switch", "return", "sizeof", "alignof",
    "decltype", "noexcept", "catch", "new", "delete", "throw", "case",
    "do", "else", "alignas", "co_return", "co_await", "co_yield",
    "static_assert", "typeid", "_Pragma", "assert",
}

_CONTROL_FIRST = {
    "if", "while", "for", "switch", "do", "else", "case", "default",
    "break", "continue", "goto", "try", "catch", "return",
}

_TYPE_QUALS = {
    "const", "volatile", "typename", "struct", "class", "enum",
    "mutable", "static", "constexpr", "inline", "thread_local",
    "explicit", "virtual", "friend", "extern", "register", "unsigned",
    "signed", "auto",
}

_WRAPPERS = {"shared_ptr", "unique_ptr", "weak_ptr", "vector", "deque",
             "span", "optional", "atomic", "array", "list",
             "reference_wrapper", "initializer_list"}
_MAPLIKE = {"map", "unordered_map"}

_MACRO_RE = re.compile(r"^[A-Z][A-Z0-9_]*[A-Z0-9]$")
_INCLUDE_RE = re.compile(r'#[ \t]*include[ \t]*([<"])([^<>"\n]+)[>"]')


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"{self.text}@{self.line}"


def tokenize(text: str, line: int = 1, in_directive: bool = False):
    """Returns (tokens, comment_lines, includes, directives).  Comments
    and preprocessor directives are dropped from the token stream;
    comment_lines records every source line that carries (part of) a
    comment, for justification checks.  includes lists each #include as
    (line, path, angled); directives lists every other directive as
    (line, text after its '#'), for the passes that read macro bodies:
    tokenize(body, line, in_directive=True) lexes one, with '#' an
    operator (stringizing, pasting) rather than a new directive."""
    toks: list[Tok] = []
    comment_lines: set[int] = set()
    includes: list[tuple[int, str, bool]] = []
    directives: list[tuple[int, str]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and text.startswith("//", i):
            comment_lines.add(line)
            j = text.find("\n", i)
            i = n if j < 0 else j
            continue
        if c == "/" and text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                j = n
            seg = text[i:j]
            for k in range(seg.count("\n") + 1):
                comment_lines.add(line + k)
            line += seg.count("\n")
            i = j + 2
            continue
        if c == "#" and not in_directive:
            # Preprocessor directive (with continuations).
            start, at = i, line
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                k = j - 1
                if k >= 0 and text[k] == "\r":
                    k -= 1
                if k >= i and text[k] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # newline handled by main loop
                break
            m = _INCLUDE_RE.match(text, start)
            if m:
                includes.append((at, m.group(2), m.group(1) == "<"))
            else:
                directives.append((at, text[start + 1:i]))
            continue
        if c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^()\\\s]{0,16})\(', text[i:])
            if m:
                endmark = ")" + m.group(1) + '"'
                j = text.find(endmark, i + m.end())
                if j < 0:
                    j = n
                seg = text[i:j]
                toks.append(Tok("str", '""', line))
                line += seg.count("\n")
                i = j + len(endmark)
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == c or text[j] == "\n":
                    break
                j += 1
            toks.append(Tok("str" if c == '"' else "chr", text[i:j + 1],
                            line))
            # A backslash-newline inside the literal, or the newline that
            # ends an unterminated one, still ends a source line.
            line += text.count("\n", i, j + 1)
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for op in _OPS3:
            if text.startswith(op, i):
                toks.append(Tok("op", op, line))
                i += len(op)
                break
        else:
            for op in _OPS2:
                if text.startswith(op, i):
                    toks.append(Tok("op", op, line))
                    i += len(op)
                    break
            else:
                toks.append(Tok("op", c, line))
                i += 1
    return toks, comment_lines, includes, directives


# --------------------------------------------------------------------------
# IR
# --------------------------------------------------------------------------


class ClassInfo:
    def __init__(self, name: str, qname: str, path: str, line: int):
        self.name = name
        self.qname = qname
        self.path = path
        self.line = line
        self.members: dict[str, str] = {}   # member -> core type
        self.bases: list[str] = []          # short base-class names
        self.methods: set[str] = set()


class Event:
    """One body event.  kind in {acquire, release, wait, call, invoke,
    scope_open, scope_close}.  Fields are kind-dependent; unused ones
    stay None."""
    __slots__ = ("kind", "line", "depth", "stmt", "lock", "style", "var",
                 "name", "recv", "recv_core", "assigned", "var_type",
                 "callees")

    def __init__(self, kind, line, depth, stmt, **kw):
        self.kind = kind
        self.line = line
        self.depth = depth
        self.stmt = stmt
        self.lock = kw.get("lock")          # identity string
        self.style = kw.get("style")        # raii | releasable | manual
        self.var = kw.get("var")            # RAII guard variable name
        self.name = kw.get("name")          # callee / invoked variable
        self.recv = kw.get("recv")          # raw receiver chain (list)
        self.recv_core = kw.get("recv_core")  # resolved receiver class
        self.assigned = kw.get("assigned")  # var the call initializes
        self.var_type = kw.get("var_type")  # core type of invoked var

    def __repr__(self):  # pragma: no cover - debugging aid
        bits = [self.kind, str(self.line)]
        for f in ("lock", "name", "recv_core", "assigned"):
            v = getattr(self, f)
            if v:
                bits.append(f"{f}={v}")
        return "<" + " ".join(bits) + ">"


class Statement:
    """Discard-pass view of one expression statement."""
    __slots__ = ("line", "void_cast", "macro", "segments")

    def __init__(self, line, void_cast, macro, segments):
        self.line = line
        self.void_cast = void_cast      # statement is a (void)... cast
        self.macro = macro              # statement is MACRO(...);
        # segments: [(final_call_name, recv_core_or_None)] — one per
        # top-level comma segment / ternary branch whose value is unused.
        self.segments = segments


class FunctionInfo:
    def __init__(self, name, cls, path, line):
        self.name = name                # short name (may be <lambda:N>)
        self.cls = cls                  # short enclosing class or None
        self.path = path
        self.line = line
        self.params: dict[str, str] = {}
        self.locals: dict[str, str] = {}
        self.annotations: list[tuple[str, str]] = []
        self.returns_status = False
        self.has_body = False
        self.body = None                # (lo, hi) token range
        self.events: list[Event] = []
        self.statements: list[Statement] = []
        self.parent = None              # enclosing FunctionInfo (lambdas)

    @property
    def qname(self):
        base = f"{self.cls}::{self.name}" if self.cls else self.name
        return base

    @property
    def no_tsa(self):
        return any(m.endswith("NO_THREAD_SAFETY_ANALYSIS")
                   for m, _ in self.annotations)

    @property
    def requires_locks(self):
        return [arg for m, arg in self.annotations
                if m.endswith("REQUIRES") and arg]

    def outer_named(self):
        f = self
        while f.parent is not None:
            f = f.parent
        return f

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<fn {self.qname} {self.path}:{self.line}>"


class FileIR:
    def __init__(self, path):
        self.path = path
        self.toks: list[Tok] = []
        self.comment_lines: set[int] = set()
        self.includes: list[tuple[int, str, bool]] = []
        self.directives: list[tuple[int, str]] = []
        self.functions: list[FunctionInfo] = []
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, str] = {}
        self.globals: dict[str, str] = {}


# --------------------------------------------------------------------------
# Type helpers
# --------------------------------------------------------------------------


def core_type_of(ts: list[str], aliases: dict[str, str] | None = None):
    """Collapses a type token list to its 'core' short class name:
    strips cv/ref/ptr, namespaces, and smart-pointer/container wrappers
    (a vector<T> resolves to T so that subscripted accesses type-check
    without separate element tracking)."""
    ts = [t for t in ts if t not in ("&", "&&", "*") and
          t not in _TYPE_QUALS]
    i = 0
    while i < len(ts):
        if not (ts[i][0].isalpha() or ts[i][0] == "_"):
            i += 1
            continue
        chain = [ts[i]]
        k = i + 1
        while k + 1 < len(ts) and ts[k] == "::":
            if ts[k + 1][0].isalpha() or ts[k + 1][0] == "_":
                chain.append(ts[k + 1])
                k += 2
            else:
                break
        name = chain[-1]
        if k < len(ts) and ts[k] == "<":
            args, _ = _split_angle_args(ts, k)
            if name in _WRAPPERS and args:
                return core_type_of(args[0], aliases)
            if name in _MAPLIKE and len(args) >= 2:
                return core_type_of(args[1], aliases)
            return _resolve_alias(name, aliases)
        return _resolve_alias(name, aliases)
    return ""


def _resolve_alias(name, aliases, depth=0):
    if aliases and name in aliases and depth < 8:
        return _resolve_alias(aliases[name], aliases, depth + 1) \
            if aliases[name] != name else name
    return name


def _split_angle_args(ts, lt):
    """ts[lt] == '<'; returns ([arg token lists], index past '>')."""
    depth = 0
    args, cur = [], []
    i = lt
    while i < len(ts):
        t = ts[i]
        if t == "<":
            depth += 1
            if depth > 1:
                cur.append(t)
        elif t == ">":
            depth -= 1
            if depth == 0:
                args.append(cur)
                return args, i + 1
            cur.append(t)
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                args.append(cur)
                return args, i + 1
            cur.append(t)
        elif t == "," and depth == 1:
            args.append(cur)
            cur = []
        else:
            if depth >= 1:
                cur.append(t)
        i += 1
    return args, i


# --------------------------------------------------------------------------
# Structural parser
# --------------------------------------------------------------------------


class ParseError(Exception):
    pass


class Parser:
    def __init__(self, path: str, text: str):
        self.path = path
        self.ir = FileIR(path)
        (self.toks, self.ir.comment_lines, self.ir.includes,
         self.ir.directives) = tokenize(text)
        self.ir.toks = self.toks
        self.i = 0
        self.stack: list[dict] = []
        self._pending_bodies: list[FunctionInfo] = []

    # -- token utilities ---------------------------------------------------

    def _t(self, i):
        return self.toks[i] if 0 <= i < len(self.toks) else Tok("op", "",
                                                                -1)

    def _match(self, i, op, cl):
        """toks[i] is `op`; returns index just past the matching `cl`."""
        depth = 0
        n = len(self.toks)
        while i < n:
            x = self.toks[i].text
            if x == op:
                depth += 1
            elif x == cl:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n

    def _skip_to_semi(self, i):
        depth = 0
        n = len(self.toks)
        while i < n:
            x = self.toks[i].text
            if x in ("(", "{", "["):
                depth += 1
            elif x in (")", "}", "]"):
                depth -= 1
                if depth < 0:
                    return i  # let caller see the stray closer
            elif x == ";" and depth == 0:
                return i + 1
            i += 1
        return n

    def _skip_angles(self, i):
        """toks[i] may be '<'; conservative angle skipping for template
        headers."""
        if self._t(i).text != "<":
            return i
        depth = 0
        n = len(self.toks)
        while i < n:
            x = self.toks[i].text
            if x == "<":
                depth += 1
            elif x == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif x == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif x in (";", "{"):
                return i  # bail out: not a template header after all
            i += 1
        return n

    # -- scope helpers -----------------------------------------------------

    def _cur_class(self):
        for fr in reversed(self.stack):
            if fr["kind"] == "class":
                return fr["info"]
        return None

    # -- main loop ---------------------------------------------------------

    def parse(self) -> FileIR:
        n = len(self.toks)
        while self.i < n:
            t = self.toks[self.i]
            top = self.stack[-1] if self.stack else None
            kind = top["kind"] if top else "ns"
            if t.text == "}":
                if self.stack:
                    self.stack.pop()
                self.i += 1
                continue
            if kind in ("enum", "block"):
                if t.text == "{":
                    self.stack.append({"kind": "block"})
                self.i += 1
                continue
            if t.kind == "id":
                x = t.text
                if x == "namespace":
                    self._parse_namespace()
                    continue
                if x in ("class", "struct"):
                    self._parse_class()
                    continue
                if x == "enum":
                    self._skip_enum()
                    continue
                if x == "using":
                    self._parse_using()
                    continue
                if x == "typedef":
                    self.i = self._skip_to_semi(self.i)
                    continue
                if x == "template":
                    self.i = self._skip_angles(self.i + 1)
                    continue
                if x in ("public", "private", "protected") and \
                        self._t(self.i + 1).text == ":":
                    self.i += 2
                    continue
                if x in ("friend", "static_assert"):
                    self.i = self._skip_to_semi(self.i)
                    continue
                if x == "extern" and self._t(self.i + 1).kind == "str":
                    if self._t(self.i + 2).text == "{":
                        self.stack.append({"kind": "ns", "name": None})
                        self.i += 3
                    else:
                        self.i += 2
                    continue
                self._parse_declaration()
                continue
            if t.text == "{":
                self.stack.append({"kind": "block"})
                self.i += 1
                continue
            if t.text == "[" and self._t(self.i + 1).text == "[":
                self.i = self._match(self.i, "[", "]")
                continue
            self.i += 1
        for fn in self._pending_bodies:
            self._scan_body(fn)
        return self.ir

    # -- namespace / class / enum / using ---------------------------------

    def _parse_namespace(self):
        self.i += 1
        names = []
        while self._t(self.i).kind == "id":
            names.append(self._t(self.i).text)
            self.i += 1
            if self._t(self.i).text == "::":
                self.i += 1
            else:
                break
        x = self._t(self.i).text
        if x == "=":
            self.i = self._skip_to_semi(self.i)
            return
        if x == "{":
            self.stack.append({"kind": "ns",
                               "name": "::".join(names) or None})
            self.i += 1
            return
        self.i += 1

    def _parse_class(self):
        save = self.i
        self.i += 1
        # attributes / export macros before the name
        while True:
            t = self._t(self.i)
            if t.text == "[" and self._t(self.i + 1).text == "[":
                self.i = self._match(self.i, "[", "]")
                continue
            if t.kind == "id" and _MACRO_RE.match(t.text) and \
                    self._t(self.i + 1).text != ";":
                self.i += 1
                if self._t(self.i).text == "(":
                    self.i = self._match(self.i, "(", ")")
                continue
            break
        name = None
        if self._t(self.i).kind == "id":
            name = self._t(self.i).text
            self.i += 1
            self.i = self._skip_angles(self.i)  # explicit specializations
        while self._t(self.i).text == "final":
            self.i += 1
        x = self._t(self.i).text
        if x == ";":
            self.i += 1  # forward declaration
            return
        if x == ":":
            # base clause: collect short base names up to '{'
            bases, cur = [], []
            self.i += 1
            depth = 0
            while self.i < len(self.toks):
                t = self._t(self.i)
                if t.text == "<":
                    depth += 1
                elif t.text in (">", ">>"):
                    depth -= 2 if t.text == ">>" else 1
                elif t.text == "{" and depth <= 0:
                    break
                elif t.text == "," and depth <= 0:
                    bases.append(cur)
                    cur = []
                elif depth <= 0:
                    cur.append(t.text)
                self.i += 1
            if cur:
                bases.append(cur)
            base_names = []
            for b in bases:
                ids = [w for w in b
                       if w and (w[0].isalpha() or w[0] == "_") and
                       w not in ("public", "private", "protected",
                                 "virtual")]
                if ids:
                    base_names.append(ids[-1])
            x = self._t(self.i).text
            if x != "{":
                self.i = self._skip_to_semi(self.i)
                return
            self._push_class(name, base_names)
            return
        if x == "{":
            self._push_class(name, [])
            return
        # Elaborated-type declaration (`struct Foo var;`): re-parse as a
        # plain declaration with the keyword consumed as a type token.
        self.i = save + 1
        self._parse_declaration(head_start=save)

    def _push_class(self, name, bases):
        if name is None:
            name = f"<anon:{self._t(self.i).line}>"
        qparts = [fr.get("name") for fr in self.stack
                  if fr["kind"] in ("ns", "class") and fr.get("name")]
        info = self.ir.classes.get(name)
        if info is None:
            info = ClassInfo(name, "::".join(qparts + [name]), self.path,
                             self._t(self.i).line)
            self.ir.classes[name] = info
        info.bases.extend(b for b in bases if b not in info.bases)
        self.stack.append({"kind": "class", "name": name, "info": info})
        self.i += 1

    def _skip_enum(self):
        self.i += 1
        while self._t(self.i).kind == "id" or self._t(self.i).text == ":":
            if self._t(self.i).text == "{":
                break
            self.i += 1
        if self._t(self.i).text == "{":
            self.i = self._match(self.i, "{", "}")
        self.i = self._skip_to_semi(self.i)

    def _parse_using(self):
        # using NAME = type...;  |  using namespace x;  |  using a::b;
        if self._t(self.i + 1).kind == "id" and \
                self._t(self.i + 2).text == "=":
            name = self._t(self.i + 1).text
            lo = self.i + 3
            hi = self._skip_to_semi(lo)
            ts = [self.toks[k].text for k in range(lo, hi - 1)]
            self.ir.aliases[name] = core_type_of(ts, None)
            self.i = hi
            return
        self.i = self._skip_to_semi(self.i)

    # -- declarations ------------------------------------------------------

    def _parse_declaration(self, head_start=None):
        start = head_start if head_start is not None else self.i
        n = len(self.toks)
        i = self.i
        while i < n:
            x = self.toks[i].text
            if x == ";":
                self._member_from_tokens(start, i)
                self.i = i + 1
                return
            if x == "=":
                self._member_from_tokens(start, i)
                self.i = self._skip_to_semi(i)
                return
            if x == "{":
                j = self._match(i, "{", "}")
                self._member_from_tokens(start, i)
                if self._t(j).text == ";":
                    j += 1
                self.i = j
                return
            if x == "<":
                j = self._skip_angles(i)
                if j > i + 1:
                    i = j
                    continue
                i += 1
                continue
            if x == "(":
                nm = self._func_name_before(i, start)
                if nm is None:
                    i = self._match(i, "(", ")")
                    continue
                close = self._match(i, "(", ")")
                if nm["macro"]:
                    # ALLCAPS macro "call".  If a body follows this is a
                    # test/fixture macro (TEST(...) { ... }): model it as
                    # an anonymous free function so its body is analyzed.
                    if self._t(close).text == "{":
                        j = self._match(close, "{", "}")
                        fn = self._new_function(
                            f"{nm['name']}@{self.toks[i].line}", None,
                            self.toks[i].line)
                        fn.has_body = True
                        fn.body = (close + 1, j - 1)
                        self._pending_bodies.append(fn)
                        self.i = j
                        return
                    i = close
                    continue
                res = self._after_params(close)
                if res is None:
                    # Not a function signature (e.g. `int x(0);`).
                    self._member_from_tokens(start, i)
                    self.i = self._skip_to_semi(close)
                    return
                kind, ann, end, body = res
                self._emit_function(start, nm, (i + 1, close - 1), ann,
                                    body)
                self.i = end
                return
            i += 1
        self.i = n

    def _func_name_before(self, paren, start):
        """Identifies the function name ending just before toks[paren]
        ('(').  Returns {'name', 'lo', 'quals', 'macro'} or None."""
        j = paren - 1
        if j < start:
            return None
        t = self.toks[j]
        if t.kind != "id":
            # operator functions: ids 'operator' then op token(s)
            k = j
            ops = []
            while k >= start and self.toks[k].kind == "op" and \
                    self.toks[k].text not in (")", "]", "}", ";"):
                ops.append(self.toks[k].text)
                k -= 1
                if len(ops) > 2:
                    break
            if k >= start and self.toks[k].kind == "id" and \
                    self.toks[k].text == "operator":
                return {"name": "operator" + "".join(reversed(ops)),
                        "lo": k, "quals": self._quals_before(k, start),
                        "macro": False}
            return None
        name = t.text
        if name in _KEYWORDS_NOT_CALLS or name in _TYPE_QUALS:
            return None
        lo = j
        if j - 1 >= start and self.toks[j - 1].text == "~":
            name = "~" + name
            lo = j - 1
        if name == "operator":
            return None
        if _MACRO_RE.match(name):
            return {"name": name, "lo": lo, "quals": [], "macro": True}
        return {"name": name, "lo": lo,
                "quals": self._quals_before(lo, start), "macro": False}

    def _quals_before(self, lo, start):
        quals = []
        k = lo - 1
        while k - 1 >= start and self.toks[k].text == "::" and \
                self.toks[k - 1].kind == "id":
            quals.append(self.toks[k - 1].text)
            k -= 2
        quals.reverse()
        return quals

    def _after_params(self, i):
        """Scans the region after a parameter list.  Returns
        (kind, annotations, end_index, body_range|None) with kind in
        {'body', 'decl'}, or None when this is not a function."""
        n = len(self.toks)
        ann = []
        while i < n:
            t = self.toks[i]
            x = t.text
            if x in ("const", "override", "final", "mutable",
                     "constexpr", "inline", "&", "&&", "volatile",
                     "try"):
                i += 1
                continue
            if x in ("noexcept", "throw"):
                i += 1
                if self._t(i).text == "(":
                    i = self._match(i, "(", ")")
                continue
            if x == "->":
                i += 1
                # trailing return type: consume conservative type tokens
                while i < n and self.toks[i].text not in ("{", ";", "="):
                    if self.toks[i].text == "<":
                        i = self._skip_angles(i)
                    else:
                        i += 1
                continue
            if t.kind == "id" and _MACRO_RE.match(x):
                i += 1
                arg = ""
                if self._t(i).text == "(":
                    j = self._match(i, "(", ")")
                    arg = " ".join(tk.text for tk in self.toks[i + 1:j - 1])
                    i = j
                ann.append((x, arg))
                continue
            if x == "[" and self._t(i + 1).text == "[":
                i = self._match(i, "[", "]")
                continue
            if x == "=":
                nxt = self._t(i + 1).text
                if nxt in ("default", "delete", "0"):
                    return ("decl", ann, self._skip_to_semi(i), None)
                return None
            if x == ":":
                j = self._skip_ctor_inits(i + 1)
                if j is None:
                    return None
                i = j  # index of body '{'
                continue
            if x == "{":
                j = self._match(i, "{", "}")
                return ("body", ann, j, (i + 1, j - 1))
            if x == ";":
                return ("decl", ann, i + 1, None)
            if x == ",":
                return ("decl", ann, self._skip_to_semi(i), None)
            return None
        return None

    def _skip_ctor_inits(self, i):
        """Scans a constructor initializer list starting at toks[i];
        returns the index of the body '{' or None."""
        n = len(self.toks)
        while i < n:
            # initializer: id-chain [<...>] ( ... ) | { ... }
            if self.toks[i].text == "...":  # pack expansion
                i += 1
                continue
            if self.toks[i].kind != "id":
                return None
            i += 1
            while self._t(i).text == "::" and self._t(i + 1).kind == "id":
                i += 2
            if self._t(i).text == "<":
                i = self._skip_angles(i)
            x = self._t(i).text
            if x == "(":
                i = self._match(i, "(", ")")
            elif x == "{":
                i = self._match(i, "{", "}")
            else:
                return None
            if self._t(i).text == "...":
                i += 1
            x = self._t(i).text
            if x == ",":
                i += 1
                continue
            if x == "{":
                return i
            return None
        return None

    def _member_from_tokens(self, start, end):
        """Records a member/global variable declaration from
        toks[start:end] (terminator excluded)."""
        ts = list(self.toks[start:end])
        # strip trailing annotation macros / attributes / brace groups
        while ts:
            if ts[-1].text == "]" or ts[-1].text == "}" or \
                    ts[-1].text == ")":
                opener = {"]": "[", "}": "{", ")": "("}[ts[-1].text]
                depth = 0
                k = len(ts) - 1
                while k >= 0:
                    if ts[k].text == ts[-1].text:
                        depth += 1
                    elif ts[k].text == opener:
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                ts = ts[:k]
                continue
            if ts[-1].kind == "id" and _MACRO_RE.match(ts[-1].text):
                ts = ts[:-1]
                continue
            break
        if not ts or ts[-1].kind != "id":
            return
        name = ts[-1].text
        if name in _TYPE_QUALS or name in _KEYWORDS_NOT_CALLS or \
                name in ("default", "delete", "operator"):
            return
        type_ts = [t.text for t in ts[:-1]]
        if not type_ts:
            return
        core = core_type_of(type_ts, self.ir.aliases)
        if not core:
            return
        cls = self._cur_class()
        if cls is not None:
            cls.members[name] = core
        else:
            self.ir.globals[name] = core

    def _new_function(self, name, cls_name, line):
        fn = FunctionInfo(name, cls_name, self.path, line)
        self.ir.functions.append(fn)
        return fn

    def _emit_function(self, head_start, nm, params, ann, body):
        cls = self._cur_class()
        cls_name = cls.name if cls else None
        if nm["quals"]:
            cls_name = nm["quals"][-1]  # out-of-class definition
        line = self.toks[nm["lo"]].line
        fn = self._new_function(nm["name"], cls_name, line)
        fn.annotations = ann
        head = [t.text for t in self.toks[head_start:nm["lo"]]]
        fn.returns_status = any(
            w in ("Status", "Result") or
            _resolve_alias(w, self.ir.aliases) in ("Status", "Result")
            for w in head)
        fn.params = self._parse_params(params)
        if cls is not None and nm["quals"] == []:
            cls.methods.add(nm["name"])
        if body is not None:
            fn.has_body = True
            fn.body = body
            self._pending_bodies.append(fn)

    def _parse_params(self, rng):
        lo, hi = rng
        params = {}
        depth = 0
        cur: list[Tok] = []
        groups = []
        for k in range(lo, hi + 1):
            t = self.toks[k]
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            if t.text == "," and depth <= 0:
                groups.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            groups.append(cur)
        for g in groups:
            # strip default argument
            for k, t in enumerate(g):
                if t.text == "=":
                    g = g[:k]
                    break
            ids = [t for t in g if t.kind == "id" and
                   t.text not in _TYPE_QUALS]
            if len(ids) < 2:
                continue  # unnamed or simple param: no receiver value
            name = ids[-1].text
            type_ts = []
            for t in g:
                if t is ids[-1]:
                    break
                type_ts.append(t.text)
            params[name] = core_type_of(type_ts, self.ir.aliases)
        return params

    # -- body scanning -----------------------------------------------------

    _LOCK_GUARDS = {"MutexLock": "raii", "ReleasableMutexLock":
                    "releasable"}
    _MANUAL_LOCK = {"Lock": "acquire", "TryLock": "acquire",
                    "Unlock": "release"}
    _WAITS = {"Wait", "WaitFor", "WaitUntil"}

    def _scan_body(self, fn: FunctionInfo):
        lo, hi = fn.body
        i = lo
        depth = 1
        paren = 0
        stmt_start = i
        stmt_id = 0
        releasable: dict[str, int] = {}  # guard var -> True
        # token ranges of child lambdas: their events belong to the
        # lambda (analyzed separately), not to this function
        self._lambda_skip = []
        while i <= hi:
            t = self.toks[i]
            x = t.text
            if x == "(":
                paren += 1
            elif x == ")":
                paren = max(0, paren - 1)
            elif x == "[":
                if self._t(i + 1).text == "[":
                    i = self._match(i, "[", "]")
                    continue
                lam = self._try_lambda(i, fn, hi)
                if lam is not None:
                    i = lam
                    continue
            elif x == "{" and paren == 0:
                self._process_statement(fn, stmt_start, i - 1, depth,
                                        stmt_id, releasable)
                stmt_id += 1
                depth += 1
                fn.events.append(Event("scope_open", t.line, depth,
                                       stmt_id))
                i += 1
                stmt_start = i
                continue
            elif x == "}" and paren == 0:
                self._process_statement(fn, stmt_start, i - 1, depth,
                                        stmt_id, releasable)
                stmt_id += 1
                fn.events.append(Event("scope_close", t.line, depth,
                                       stmt_id))
                depth -= 1
                i += 1
                stmt_start = i
                continue
            elif x == ";" and paren == 0:
                self._process_statement(fn, stmt_start, i - 1, depth,
                                        stmt_id, releasable)
                stmt_id += 1
                i += 1
                stmt_start = i
                continue
            i += 1
        self._process_statement(fn, stmt_start, hi, depth, stmt_id,
                                releasable)

    def _try_lambda(self, i, fn, body_hi):
        """toks[i] == '['.  If this begins a lambda, parses it as an
        anonymous child function and returns the index past its body;
        otherwise returns None."""
        prev = self._t(i - 1)
        if prev.kind in ("id", "num", "str") or prev.text in (")", "]"):
            return None  # subscript
        cap_end = self._match(i, "[", "]")
        j = cap_end
        params = (0, -1)
        if self._t(j).text == "(":
            pclose = self._match(j, "(", ")")
            params = (j + 1, pclose - 1)
            j = pclose
        while self._t(j).text in ("mutable", "constexpr", "noexcept"):
            j += 1
            if self._t(j).text == "(":
                j = self._match(j, "(", ")")
        if self._t(j).text == "->":
            j += 1
            while self._t(j).kind == "id" or self._t(j).text in \
                    ("::", "*", "&", "const"):
                if self._t(j).text == "{":
                    break
                j += 1
            if self._t(j).text == "<":
                j = self._skip_angles(j)
        if self._t(j).text != "{":
            return None
        close = self._match(j, "{", "}")
        if close - 1 > body_hi + 1:
            return None
        lam = self._new_function(f"<lambda:{self._t(i).line}>", fn.cls,
                                 self._t(i).line)
        lam.parent = fn
        lam.has_body = True
        lam.body = (j + 1, close - 2)
        if params != (0, -1):
            lam.params = self._parse_params(params)
        self._pending_bodies.append(lam)
        self._lambda_skip.append((i, close - 1))
        return close

    # statement processing

    def _process_statement(self, fn, lo, hi, depth, stmt_id, releasable):
        if lo > hi:
            return
        toks = self.toks
        first = toks[lo]
        # --- local declaration / RAII lock detection
        decl = self._classify_decl(lo, hi)
        if decl is not None:
            var, core, ctor_args, assigned_call = decl
            if core in self._LOCK_GUARDS and ctor_args is not None:
                lock_expr = self._strip_addr(ctor_args)
                fn.events.append(Event(
                    "acquire", first.line, depth, stmt_id,
                    lock=lock_expr, style=self._LOCK_GUARDS[core],
                    var=var))
                if self._LOCK_GUARDS[core] == "releasable":
                    releasable[var] = True
                fn.locals[var] = core
                return
            if var is not None:
                fn.locals.setdefault(var, core)
        # --- scan calls inside the statement
        assigned_var = decl[0] if decl is not None else None
        self._scan_calls(fn, lo, hi, depth, stmt_id, releasable,
                         assigned_var)
        # --- discard-pass statement record
        if decl is None and first.text not in _CONTROL_FIRST and \
                first.kind in ("id", "op"):
            st = self._statement_record(lo, hi)
            if st is not None:
                fn.statements.append(st)

    def _strip_addr(self, ts):
        out = [w for w in ts if w not in ("&",)]
        if out[:2] == ["this", "->"]:
            out = out[2:]
        return out

    def _classify_decl(self, lo, hi):
        """Returns (var, core_type, ctor_arg_tokens|None, rhs_call|None)
        when toks[lo:hi] is a simple local declaration, else None."""
        toks = self.toks
        if toks[lo].kind != "id" or toks[lo].text in _CONTROL_FIRST or \
                _MACRO_RE.match(toks[lo].text):
            return None
        # type chain
        i = lo
        type_ts = []
        n_ids = 0
        while i <= hi:
            t = toks[i]
            if t.kind == "id" and t.text not in _TYPE_QUALS:
                # lookahead: is this the variable name?
                nxt = self._t(i + 1).text
                if (n_ids >= 1 or "auto" in type_ts) and \
                        (nxt in ("=", "(", "{", ";", "[") or i == hi):
                    var = t.text
                    core = core_type_of(type_ts, self.ir.aliases)
                    if not core and "auto" in type_ts:
                        core = "auto"  # deduced type: identity only
                    if not core or var in _KEYWORDS_NOT_CALLS:
                        return None
                    ctor_args = None
                    rhs_call = None
                    if nxt == "(":
                        close = self._match(i + 1, "(", ")")
                        ctor_args = [tk.text
                                     for tk in toks[i + 2:close - 1]]
                    elif nxt == "=":
                        k = i + 2
                        if self._t(k).kind == "id":
                            rhs_call = self._t(k).text
                    return (var, core, ctor_args, rhs_call)
                type_ts.append(t.text)
                n_ids += 1
                i += 1
                if self._t(i).text == "<":
                    args_ts = []
                    j = self._skip_angles(i)
                    args_ts = [tk.text for tk in toks[i:j]]
                    type_ts.extend(args_ts)
                    i = j
                continue
            if t.text in ("::", "*", "&", "&&") or \
                    (t.kind == "id" and t.text in _TYPE_QUALS):
                type_ts.append(t.text)
                i += 1
                continue
            return None
        return None

    def _scan_calls(self, fn, lo, hi, depth, stmt_id, releasable,
                    assigned_var):
        toks = self.toks
        j = lo
        while j <= hi:
            skip = next((s for s in self._lambda_skip
                         if s[0] <= j <= s[1]), None)
            if skip is not None:
                j = skip[1] + 1
                continue
            t = toks[j]
            if t.kind != "id" or self._t(j + 1).text != "(":
                j += 1
                continue
            name = t.text
            if name in _KEYWORDS_NOT_CALLS or name in _TYPE_QUALS:
                j += 1
                continue
            line = t.line
            # receiver chain (walk back over `a.b->` / `f()->`)
            recv, recv_kind = self._receiver_before(j, lo)
            ev = None
            if name.startswith("HAMMING_METRIC_"):
                ev = Event("call", line, depth, stmt_id,
                           name={"HAMMING_METRIC_ADD": "Add",
                                 "HAMMING_METRIC_SET": "Set",
                                 "HAMMING_METRIC_OBSERVE": "Observe"}
                           .get(name, "Add"),
                           recv=None, recv_core="MetricsRegistry")
            elif _MACRO_RE.match(name):
                j += 1
                continue
            elif name in self._MANUAL_LOCK and recv and \
                    recv_kind == "chain":
                ev = Event("acquire" if self._MANUAL_LOCK[name] ==
                           "acquire" else "release", line, depth,
                           stmt_id, lock=recv, style="manual")
            elif name in self._WAITS and recv:
                arg = self._first_arg(j + 1)
                ev = Event("wait", line, depth, stmt_id,
                           lock=self._strip_addr(arg) if arg else None,
                           recv=recv)
            elif name == "Release" and recv and recv_kind == "chain" \
                    and len(ids := [p for p in recv
                                    if p not in (".", "[]")]) == 1 \
                    and ids[0] in releasable:
                ev = Event("release", line, depth, stmt_id,
                           lock=None, style="releasable", var=ids[0])
            elif recv is None and self._is_known_var(fn, name):
                ev = Event("invoke", line, depth, stmt_id, name=name)
            else:
                ev = Event("call", line, depth, stmt_id, name=name,
                           recv=recv,
                           assigned=assigned_var)
            fn.events.append(ev)
            j += 1

    def _is_known_var(self, fn, name):
        f = fn
        while f is not None:
            if name in f.locals or name in f.params:
                return True
            f = f.parent
        return False

    def _receiver_before(self, name_idx, lo):
        """Receiver chain ending at `.`/`->` just before toks[name_idx].
        Returns (chain_tokens|None, 'chain'|'callresult'|None)."""
        k = name_idx - 1
        if k < lo or self.toks[k].text not in (".", "->"):
            # qualified static call A::B(
            if k >= lo and self.toks[k].text == "::" and \
                    self._t(k - 1).kind == "id":
                return ([self._t(k - 1).text, "::"], "qual")
            return (None, None)
        chain: list[str] = []
        while k >= lo:
            x = self.toks[k].text
            if x in (".", "->"):
                chain.append(".")
                k -= 1
                continue
            if x == "]":
                # skip subscript, mark with []
                depth = 0
                while k >= lo:
                    if self.toks[k].text == "]":
                        depth += 1
                    elif self.toks[k].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                chain.append("[]")
                k -= 1
                continue
            if x == ")":
                # receiver is a call result: find the call name
                depth = 0
                while k >= lo:
                    if self.toks[k].text == ")":
                        depth += 1
                    elif self.toks[k].text == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                k -= 1
                if k >= lo and self.toks[k].kind == "id":
                    chain.append(self.toks[k].text + "()")
                    k -= 1
                    # only support a single call-result hop
                    chain.reverse()
                    return (chain, "callresult")
                return (None, None)
            if self.toks[k].kind == "id":
                chain.append(x)
                k -= 1
                if k >= lo and self.toks[k].text == "::":
                    # namespace-qualified receiver: drop qualifier
                    k -= 2
                continue
            break
        chain.reverse()
        # strip leading separators
        while chain and chain[0] == ".":
            chain = chain[1:]
        return (chain or None, "chain" if chain else None)

    def _first_arg(self, paren_idx):
        """Token texts of the first top-level argument of the call whose
        '(' is at paren_idx."""
        close = self._match(paren_idx, "(", ")")
        out = []
        depth = 0
        for k in range(paren_idx + 1, close - 1):
            x = self.toks[k].text
            if x in ("(", "[", "{", "<"):
                depth += 1
            elif x in (")", "]", "}", ">"):
                depth -= 1
            elif x == "," and depth == 0:
                break
            out.append(x)
        return out

    def _statement_record(self, lo, hi):
        toks = self.toks
        line = toks[lo].line
        void_cast = (toks[lo].text == "(" and
                     self._t(lo + 1).text == "void" and
                     self._t(lo + 2).text == ")")
        macro = (toks[lo].kind == "id" and
                 bool(_MACRO_RE.match(toks[lo].text)))
        if void_cast:
            # `(void)key;` silencing an unused binding is not a discard;
            # only a (void)-cast over a *call* is
            has_call = any(
                toks[k].kind == "id" and self._t(k + 1).text == "(" and
                toks[k].text not in _KEYWORDS_NOT_CALLS and
                not _MACRO_RE.match(toks[k].text)
                for k in range(lo + 3, hi + 1))
            if not has_call:
                return None
            return Statement(line, True, False, [])
        if macro:
            return Statement(line, False, True, [])
        # a top-level assignment consumes the statement's value
        # (covers `x = cond ? A() : B();` whose '=' sits before the '?')
        depth = 0
        for k in range(lo, hi + 1):
            x = toks[k].text
            if x in ("(", "[", "{"):
                depth += 1
            elif x in (")", "]", "}"):
                depth = max(0, depth - 1)
            elif depth == 0 and x in ("=", "+=", "-=", "*=", "/=", "%=",
                                      "&=", "|=", "^=", "<<=", ">>="):
                return None
        # split on top-level ',' and ternary branches; record the final
        # call of each value-discarding segment
        segs = self._split_segments(lo, hi)
        out = []
        for s_lo, s_hi in segs:
            fc = self._final_call(s_lo, s_hi)
            if fc is not None:
                out.append(fc)
        if not out:
            return None
        return Statement(line, False, False, out)

    def _split_segments(self, lo, hi):
        toks = self.toks
        segs = []
        depth = 0
        bounds = []
        for k in range(lo, hi + 1):
            x = toks[k].text
            if x in ("(", "[", "{"):
                depth += 1
            elif x in (")", "]", "}"):
                depth -= 1
            elif depth == 0 and x in (",", "?", ":"):
                bounds.append((k, x))
        prev = lo
        for b, d in bounds:
            segs.append((prev, b - 1, d))
            prev = b + 1
        segs.append((prev, hi, None))
        # a segment followed by '?' is a ternary condition — its value
        # is consumed, so it is not a discard candidate
        return [(a, b) for a, b, d in segs if a <= b and d != "?"]

    def _final_call(self, lo, hi):
        """(name, recv_chain) of the last top-level call in the segment
        whose value is discarded, or None (assignments, non-calls,
        casts, throw/co_* consume or don't produce a value)."""
        toks = self.toks
        depth = 0
        last = None
        if toks[lo].text in ("throw", "co_await", "co_yield", "delete",
                             "new"):
            return None
        for k in range(lo, hi + 1):
            x = toks[k].text
            if depth == 0 and x in ("=", "+=", "-=", "*=", "/=", "%=",
                                    "&=", "|=", "^=", "<<=", ">>="):
                return None
            if toks[k].kind == "id" and self._t(k + 1).text == "(" and \
                    depth == 0:
                if x not in _KEYWORDS_NOT_CALLS and \
                        not _MACRO_RE.match(x):
                    recv, _ = self._receiver_before(k, lo)
                    last = (x, recv)
            if x in ("(", "[", "{"):
                depth += 1
            elif x in (")", "]", "}"):
                depth = max(0, depth - 1)
        return last


def parse_file(path: str, text: str | None = None) -> FileIR:
    if text is None:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    return Parser(path, text).parse()


# --------------------------------------------------------------------------
# Program: linked view over all parsed files
# --------------------------------------------------------------------------


class Program:
    def __init__(self):
        self.files: dict[str, FileIR] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.aliases: dict[str, str] = {}
        self.globals: dict[str, str] = {}
        self.functions: list[FunctionInfo] = []
        self.name_index: dict[str, list[FunctionInfo]] = {}
        self.method_index: dict[tuple, list[FunctionInfo]] = {}
        self.derived: dict[str, set[str]] = {}

    def add_file(self, ir: FileIR):
        self.files[ir.path] = ir
        for name, ci in ir.classes.items():
            have = self.classes.get(name)
            if have is None:
                self.classes[name] = ci
            else:
                have.members.update(ci.members)
                have.methods.update(ci.methods)
                have.bases.extend(b for b in ci.bases
                                  if b not in have.bases)
        self.aliases.update(ir.aliases)
        self.globals.update(ir.globals)
        self.functions.extend(ir.functions)

    def link(self):
        self.name_index.clear()
        self.method_index.clear()
        for fn in self.functions:
            self.name_index.setdefault(fn.name, []).append(fn)
            self.method_index.setdefault((fn.cls, fn.name),
                                         []).append(fn)
        # propagate header-declaration annotations onto definitions
        ann_by_key: dict[tuple, list] = {}
        for fn in self.functions:
            if fn.annotations:
                ann_by_key.setdefault((fn.cls, fn.name),
                                      []).extend(fn.annotations)
        for fn in self.functions:
            if fn.has_body:
                extra = ann_by_key.get((fn.cls, fn.name), [])
                for a in extra:
                    if a not in fn.annotations:
                        fn.annotations.append(a)
        # returns_status union across decls/defs of the same name+class
        ret_by_key: dict[tuple, bool] = {}
        for fn in self.functions:
            key = (fn.cls, fn.name)
            ret_by_key[key] = ret_by_key.get(key, False) or \
                fn.returns_status
        for fn in self.functions:
            fn.returns_status = ret_by_key[(fn.cls, fn.name)]
        self.derived.clear()
        for ci in self.classes.values():
            for b in ci.bases:
                self.derived.setdefault(b, set()).add(ci.name)

    # -- type/identity resolution -----------------------------------------

    def hierarchy(self, cls: str) -> set[str]:
        """cls plus transitive bases and derived classes."""
        out = {cls}
        work = [cls]
        while work:
            c = work.pop()
            ci = self.classes.get(c)
            if ci:
                for b in ci.bases:
                    if b not in out:
                        out.add(b)
                        work.append(b)
            for d in self.derived.get(c, ()):  # derived closure
                if d not in out:
                    out.add(d)
                    work.append(d)
        return out

    def var_core(self, fn: FunctionInfo, name: str) -> str | None:
        f = fn
        while f is not None:
            if name in f.locals:
                return _resolve_alias(f.locals[name], self.aliases)
            if name in f.params:
                return _resolve_alias(f.params[name], self.aliases)
            f = f.parent
        # class members (own class, then bases)
        cls = fn.cls
        seen = set()
        work = [cls] if cls else []
        while work:
            c = work.pop()
            if c in seen or c is None:
                continue
            seen.add(c)
            ci = self.classes.get(c)
            if ci:
                if name in ci.members:
                    return _resolve_alias(ci.members[name], self.aliases)
                work.extend(ci.bases)
        if name in self.globals:
            return _resolve_alias(self.globals[name], self.aliases)
        return None

    def chain_core(self, fn: FunctionInfo, chain: list[str]) -> str | None:
        """Resolves `a.b.c` / `Pin().x` receiver chains to a core class
        name."""
        if not chain:
            return None
        parts = [p for p in chain if p not in (".", "[]")]
        if not parts:
            return None
        first = parts[0]
        if first == "this":
            ty = fn.cls
        elif first.endswith("()"):
            ty = self.call_return_core(fn, first[:-2])
        else:
            ty = self.var_core(fn, first)
            if ty is None and len(parts) == 1:
                return None
        for part in parts[1:]:
            if ty is None:
                return None
            if part.endswith("()"):
                ty = self.method_return_core(ty, part[:-2])
                continue
            ci = self.classes.get(ty)
            nxt = None
            seen = set()
            work = [ty]
            while work:
                c = work.pop()
                if c in seen:
                    continue
                seen.add(c)
                ci = self.classes.get(c)
                if ci:
                    if part in ci.members:
                        nxt = _resolve_alias(ci.members[part],
                                             self.aliases)
                        break
                    work.extend(ci.bases)
            ty = nxt
        return ty

    def call_return_core(self, fn, name):
        """Core return type of an unqualified call (used for
        `Pin()->...` receivers)."""
        cands = []
        if fn.cls:
            for c in self.hierarchy(fn.cls):
                cands.extend(self.method_index.get((c, name), []))
        if not cands:
            cands = self.name_index.get(name, [])
        # Pin() is the interesting case: both ConcurrentHAIndex::Pin and
        # EpochPublisher::Pin return a snapshot pointer; the alias map
        # resolves SnapshotPtr/Ptr to the snapshot class.
        for cand in cands:
            ret = self._return_core(cand)
            if ret:
                return ret
        return None

    def method_return_core(self, cls, name):
        for c in self.hierarchy(cls):
            for cand in self.method_index.get((c, name), []):
                ret = self._return_core(cand)
                if ret:
                    return ret
        return None

    def _return_core(self, fn):
        # The structural parser does not keep return-type tokens beyond
        # the Status/Result flag; aliases cover the snapshot-pointer
        # case (SnapshotPtr -> Snapshot).  Heuristic: Pin methods return
        # the pinned snapshot type.
        if fn.name == "Pin":
            return self.aliases.get("SnapshotPtr") or \
                self.aliases.get("Ptr") or "Snapshot"
        return None

    def lock_identity(self, fn: FunctionInfo, expr: list[str]) -> str:
        """Resolves a lock expression (tokens, '&'/'this->' stripped) to
        a stable identity: 'Class::member', 'Function::local', or the
        raw expression when unresolvable."""
        if not expr:
            return "?"
        parts: list[list[str]] = [[]]
        depth = 0
        for w in expr:
            if w in ("[",):
                depth += 1
                continue
            if w in ("]",):
                depth -= 1
                continue
            if depth > 0:
                continue
            if w in (".", "->"):
                parts.append([])
                continue
            parts[-1].append(w)
        comps = ["".join(p) for p in parts if p]
        if not comps:
            return " ".join(expr)
        if len(comps) == 1:
            name = comps[0]
            f = fn
            while f is not None:
                if name in f.locals or name in f.params:
                    owner = f.outer_named()
                    return f"{owner.name}::{name}"
                f = f.parent
            cls = fn.cls
            seen = set()
            work = [cls] if cls else []
            while work:
                c = work.pop()
                if c is None or c in seen:
                    continue
                seen.add(c)
                ci = self.classes.get(c)
                if ci:
                    if name in ci.members:
                        return f"{c}::{name}"
                    work.extend(ci.bases)
            if name in self.globals:
                return f"::{name}"
            return name
        # multi-component: type of the owner of the last component
        owner_chain = []
        for p in parts[:-1]:
            if p:
                owner_chain.append("".join(p))
                owner_chain.append(".")
        owner_core = self.chain_core(fn, owner_chain[:-1]) \
            if owner_chain else None
        last = comps[-1]
        if owner_core:
            return f"{owner_core}::{last}"
        return ".".join(comps)

    def resolve_callees(self, fn: FunctionInfo, ev: Event,
                        cap: int = 12) -> list[FunctionInfo]:
        """Candidate bodies for a call event.  Receiver-typed lookups
        search the class hierarchy (virtual dispatch); unqualified calls
        prefer same-class methods; the name-unique fallback only applies
        when every candidate lives in one class (avoids cross-class
        false edges)."""
        name = ev.name
        if ev.recv and len(ev.recv) >= 2 and ev.recv[-1] == "::":
            cls = ev.recv[0]
            return [f for f in self.method_index.get((cls, name), [])
                    if f.has_body]
        if ev.recv:
            core = ev.recv_core or self.chain_core(fn, ev.recv)
            ev.recv_core = core
            if core:
                out = []
                for c in self.hierarchy(core):
                    out.extend(f for f in
                               self.method_index.get((c, name), [])
                               if f.has_body)
                if out:
                    return out[:cap]
                return []
        else:
            f = fn
            cls = fn.cls
            if cls:
                out = []
                for c in self.hierarchy(cls):
                    out.extend(x for x in
                               self.method_index.get((c, name), [])
                               if x.has_body)
                if out:
                    return out[:cap]
            free = [x for x in self.name_index.get(name, [])
                    if x.cls is None and x.has_body]
            if free:
                return free[:cap]
        cands = [x for x in self.name_index.get(name, []) if x.has_body]
        classes = {x.cls for x in cands}
        if len(classes) == 1 and cands:
            return cands[:cap]
        return []

