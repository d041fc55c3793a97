"""Structural facts bplint extracts from one C++ file.

Everything here is token-stream pattern matching over lexer.lex()
output. The extraction is intentionally conservative: rules only fire
on patterns the model recognized positively, so an unrecognized
construct degrades to silence, never to a false diagnostic.

Facts per file (see FileFacts):
  * enums (name, base, enumerators) and whether they are message-type
    enums (name ends in "MessageType" or the base mentions MessageType)
  * structs/classes with their data fields and method bodies (inline
    and, project-wide via Project, out-of-line `T::Method` definitions)
  * switch statements (subject tokens, case labels, default presence),
    parsed recursively so nested switches don't leak labels outward
  * iterations: range-for targets and `it = x.begin()` style loops,
    with their body token slices
  * unordered_map/unordered_set variable names (direct declarations
    and via `using Alias = std::unordered_...` aliases)
  * Tracer::Mark call sites and the kTracePhases catalog
  * CongestionGauge call sites and the kCongestionGaugeKeys catalog
  * `bplint:allow(...)` suppressions and `bplint:` file markers
  * identifier usage contexts used by BP004 (case labels, ==/!=
    comparisons)
  * function/method definitions (FunctionDef) with qualified-name
    resolution data: enclosing class (inline and out-of-line `T::M`),
    return type, parameter tokens, body, and the call sites inside the
    body (callee name + receiver + explicit `Cls::` qualifier) — the raw
    material callgraph.py links into the project-wide call graph
  * timer facts for BP010: Schedule/ScheduleAt sites (assigned handle or
    discarded result, plus the names called / handles assigned inside
    the scheduled lambda for self-rearm detection) and the identifiers
    appearing in Cancel(...) argument lists
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from lexer import Tok, lex

SUPPRESS_RE = re.compile(
    r"bplint:allow\(\s*(BP\d{3}(?:\s*,\s*BP\d{3})*)\s*\)\s*(.*)")
MARKER_RE = re.compile(r"bplint:([a-z][a-z0-9-]*)")


@dataclass
class Suppression:
    line: int
    rules: Tuple[str, ...]
    reason: str
    used: bool = False


@dataclass
class Enum:
    name: str
    base: str
    line: int
    enumerators: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def is_message_type(self) -> bool:
        return self.name.endswith("MessageType") or "MessageType" in self.base


@dataclass
class Field:
    name: str
    type_str: str
    line: int


@dataclass
class Struct:
    name: str
    line: int
    fields: List[Field] = field(default_factory=list)
    # method name -> list of body token slices (inline definitions).
    methods: Dict[str, List[List[Tok]]] = field(default_factory=dict)


@dataclass
class Switch:
    line: int
    subject: List[Tok]
    # (enumerator, line, qualifier-or-None); qualifier is the `Foo` in a
    # `case Foo::kBar:` label, used to resolve enumerator-name collisions.
    cases: List[Tuple[str, int, Optional[str]]] = field(default_factory=list)
    has_default: bool = False


@dataclass
class Iteration:
    line: int
    target: str  # final identifier of the iterated expression
    body: List[Tok] = field(default_factory=list)


@dataclass
class MarkCall:
    line: int
    phase: str


@dataclass
class CallSite:
    """One `name(...)` call inside a function body."""
    line: int
    name: str
    recv: Optional[str] = None  # `x` in `x.name(...)` / `x->name(...)`
    qual: Optional[str] = None  # `Cls` in `Cls::name(...)`


@dataclass
class FunctionDef:
    """A function or method definition (body present)."""
    path: str
    cls: Optional[str]  # enclosing/qualifying class; None for free fns
    name: str
    line: int
    ret: str  # return type as a space-joined token string ('' for ctors)
    params: List[Tok] = field(default_factory=list)
    body: List[Tok] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    lock_param: Optional[str] = None  # name of a unique_lock& parameter

    @property
    def qname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class ScheduleSite:
    """One Schedule/ScheduleAt call (BP010 timer hygiene)."""
    line: int
    handle: Optional[str]  # final identifier assigned, None if none
    discarded: bool  # True when the TimerId result is dropped outright
    lambda_calls: Set[str] = field(default_factory=set)
    lambda_assigns: Set[str] = field(default_factory=set)


@dataclass
class GaugeCall:
    line: int
    key: str


@dataclass
class FileFacts:
    path: str
    tokens: List[Tok] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    markers: Set[str] = field(default_factory=set)
    enums: List[Enum] = field(default_factory=list)
    structs: List[Struct] = field(default_factory=list)
    # (class, method) -> list of body token slices (out-of-line defs).
    out_of_line: Dict[Tuple[str, str], List[List[Tok]]] = field(
        default_factory=dict)
    switches: List[Switch] = field(default_factory=list)
    iterations: List[Iteration] = field(default_factory=list)
    unordered_vars: Set[str] = field(default_factory=set)
    mark_calls: List[MarkCall] = field(default_factory=list)
    trace_catalog: List[str] = field(default_factory=list)
    trace_catalog_line: int = 0
    gauge_calls: List[GaugeCall] = field(default_factory=list)
    gauge_catalog: List[str] = field(default_factory=list)
    gauge_catalog_line: int = 0
    string_literals: Set[str] = field(default_factory=set)
    case_idents: Set[str] = field(default_factory=set)
    cmp_idents: Set[str] = field(default_factory=set)
    fn_defs: List[FunctionDef] = field(default_factory=list)
    cancel_args: Set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# token scanning helpers
# ---------------------------------------------------------------------------

_OPEN = {"(": ")", "{": "}", "[": "]"}


def match_balanced(toks: Sequence[Tok], i: int) -> int:
    """toks[i] is an opener; returns index one past its matching closer."""
    opener = toks[i].text
    closer = _OPEN[opener]
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def match_template(toks: Sequence[Tok], i: int) -> int:
    """toks[i] is '<'; returns index one past the matching '>'.

    Treats '>>' as two closers. Gives up (returns i+1) on suspicious
    tokens so a stray less-than comparison can't eat the file.
    """
    depth = 0
    n = len(toks)
    j = i
    while j < n:
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return i + 1  # not a template argument list after all
        j += 1
    return n


# ---------------------------------------------------------------------------
# extraction passes
# ---------------------------------------------------------------------------

def _parse_enum(toks: List[Tok], i: int, facts: FileFacts) -> int:
    """toks[i].text == 'enum'. Returns index past the enum body."""
    n = len(toks)
    j = i + 1
    if j < n and toks[j].text in ("class", "struct"):
        j += 1
    if j >= n or toks[j].kind != "id":
        return i + 1  # anonymous enum: skip keyword only
    name = toks[j].text
    line = toks[j].line
    j += 1
    base = ""
    if j < n and toks[j].text == ":":
        k = j + 1
        base_toks = []
        while k < n and toks[k].text not in ("{", ";"):
            base_toks.append(toks[k].text)
            k += 1
        base = "".join(base_toks)
        j = k
    if j >= n or toks[j].text != "{":
        return j  # forward declaration
    end = match_balanced(toks, j)
    enum = Enum(name=name, base=base, line=line)
    k = j + 1
    expect_name = True
    while k < end - 1:
        t = toks[k]
        if expect_name and t.kind == "id":
            enum.enumerators.append((t.text, t.line))
            expect_name = False
        elif t.text == ",":
            expect_name = True
        elif t.text in ("(", "{", "["):
            k = match_balanced(toks, k)
            continue
        k += 1
    facts.enums.append(enum)
    return end


def _field_from_stmt(stmt: List[Tok]) -> Optional[Field]:
    """A struct-body statement with no '(': extract the declared field."""
    if not stmt:
        return None
    head = stmt[0].text
    if head in ("using", "typedef", "static", "friend", "public", "private",
                "protected", "template", "operator"):
        return None
    # Name = last identifier before '=', '{', '[' or end.
    last_id = None
    last_idx = -1
    for idx, t in enumerate(stmt):
        if t.text in ("=", "{", "["):
            break
        if t.kind == "id":
            last_id = t
            last_idx = idx
    if last_id is None or last_idx == 0:
        return None  # a lone type name is not a member declaration
    type_str = " ".join(t.text for t in stmt[:last_idx])
    return Field(name=last_id.text, type_str=type_str, line=last_id.line)


def _parse_struct(toks: List[Tok], i: int, facts: FileFacts) -> int:
    """toks[i].text in ('struct','class'). Returns index past the body."""
    n = len(toks)
    j = i + 1
    # Skip attributes / alignas.
    while j < n and toks[j].text == "[":
        j = match_balanced(toks, j)
    if j >= n or toks[j].kind != "id":
        return i + 1
    name = toks[j].text
    line = toks[j].line
    j += 1
    if j < n and toks[j].text == ":":  # base clause
        while j < n and toks[j].text not in ("{", ";"):
            j += 1
    if j >= n or toks[j].text != "{":
        return j  # forward declaration or variable of elaborated type
    end = match_balanced(toks, j)
    struct = Struct(name=name, line=line)
    k = j + 1
    while k < end - 1:
        t = toks[k]
        if t.kind == "id" and t.text in ("public", "private", "protected") \
                and k + 1 < end and toks[k + 1].text == ":":
            k += 2
            continue
        if t.kind == "id" and t.text == "enum":
            k = _parse_enum(toks, k, facts)
            # Consume a trailing ';' if present.
            if k < end and toks[k].text == ";":
                k += 1
            continue
        if t.kind == "id" and t.text in ("struct", "class"):
            k = _parse_struct(toks, k, facts)
            if k < end and toks[k].text == ";":
                k += 1
            continue
        if t.kind == "id" and t.text == "template":
            # Skip the parameter list, then let the next loop round
            # handle whatever is declared.
            k += 1
            if k < end and toks[k].text == "<":
                k = match_template(toks, k)
            continue
        # Scan one member declaration.
        stmt: List[Tok] = []
        saw_paren = False
        fn_name: Optional[str] = None
        m = k
        while m < end - 1:
            tm = toks[m]
            if tm.text == ";":
                m += 1
                break
            if tm.text == "(" and not saw_paren:
                saw_paren = True
                if stmt and stmt[-1].kind == "id":
                    fn_name = stmt[-1].text
                m = match_balanced(toks, m)
                # cv-qualifiers / noexcept / override between ')' and body.
                while m < end - 1 and toks[m].kind == "id" and \
                        toks[m].text in ("const", "noexcept", "override",
                                         "final"):
                    m += 1
                if m < end - 1 and toks[m].text == "=":
                    # `= default;` / `= delete;` / `= 0;`
                    while m < end - 1 and toks[m].text != ";":
                        m += 1
                    m += 1
                    break
                if m < end - 1 and toks[m].text == "{":
                    body_end = match_balanced(toks, m)
                    if fn_name:
                        struct.methods.setdefault(fn_name, []).append(
                            list(toks[m + 1:body_end - 1]))
                    m = body_end
                    break
                continue
            if tm.text == "{":
                m = match_balanced(toks, m)
                continue
            if tm.text == "[":
                m = match_balanced(toks, m)
                continue
            stmt.append(tm)
            m += 1
        if not saw_paren:
            fld = _field_from_stmt(stmt)
            if fld is not None:
                struct.fields.append(fld)
        k = max(m, k + 1)
    if struct.fields or struct.methods:
        facts.structs.append(struct)
    return end


def _parse_out_of_line(toks: List[Tok], facts: FileFacts) -> None:
    """Collects `Cls::Method(...) ... { body }` definitions."""
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].text == "(" and i >= 3 and toks[i - 1].kind == "id" \
                and toks[i - 2].text == "::" and toks[i - 3].kind == "id":
            cls = toks[i - 3].text
            method = toks[i - 1].text
            j = match_balanced(toks, i)
            while j < n and toks[j].kind == "id" and \
                    toks[j].text in ("const", "noexcept", "override", "final"):
                j += 1
            if j < n and toks[j].text == "{":
                end = match_balanced(toks, j)
                facts.out_of_line.setdefault((cls, method), []).append(
                    list(toks[j + 1:end - 1]))
                i = end
                continue
        i += 1


def _parse_switch_body(toks: List[Tok], start: int, end: int,
                       sw: Switch, facts: FileFacts) -> None:
    """Scans [start, end) for case labels; recurses into nested switches."""
    k = start
    while k < end:
        t = toks[k]
        if t.kind == "id" and t.text == "switch":
            k = _parse_switch(toks, k, facts)
            continue
        if t.kind == "id" and t.text == "case":
            label: List[Tok] = []
            m = k + 1
            while m < end and toks[m].text != ":":
                label.append(toks[m])
                m += 1
            label_id = None
            label_idx = -1
            for li, lt in enumerate(label):
                if lt.kind == "id":
                    label_id = lt  # last identifier wins (handles Foo::kBar)
                    label_idx = li
            if label_id is not None:
                qualifier = None
                if label_idx >= 2 and label[label_idx - 1].text == "::" and \
                        label[label_idx - 2].kind == "id":
                    qualifier = label[label_idx - 2].text
                sw.cases.append((label_id.text, label_id.line, qualifier))
                facts.case_idents.add(label_id.text)
            k = m + 1
            continue
        if t.kind == "id" and t.text == "default":
            sw.has_default = True
        k += 1


def _parse_switch(toks: List[Tok], i: int, facts: FileFacts) -> int:
    """toks[i].text == 'switch'. Returns index past the switch statement."""
    n = len(toks)
    j = i + 1
    if j >= n or toks[j].text != "(":
        return i + 1
    subj_end = match_balanced(toks, j)
    subject = list(toks[j + 1:subj_end - 1])
    k = subj_end
    if k >= n or toks[k].text != "{":
        return subj_end
    body_end = match_balanced(toks, k)
    sw = Switch(line=toks[i].line, subject=subject)
    _parse_switch_body(toks, k + 1, body_end - 1, sw, facts)
    facts.switches.append(sw)
    return body_end


def _final_ident(expr: Sequence[Tok]) -> Optional[str]:
    last = None
    for t in expr:
        if t.kind == "id":
            last = t.text
    return last


def _loop_body(toks: List[Tok], i: int) -> Tuple[List[Tok], int]:
    """toks[i] is the first token after a for(...) header."""
    n = len(toks)
    if i < n and toks[i].text == "{":
        end = match_balanced(toks, i)
        return list(toks[i + 1:end - 1]), end
    # Single statement body.
    j = i
    while j < n and toks[j].text != ";":
        if toks[j].text in _OPEN:
            j = match_balanced(toks, j)
            continue
        j += 1
    return list(toks[i:j]), j + 1


def _parse_iterations(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    i = 0
    while i < n:
        if toks[i].kind == "id" and toks[i].text == "for" and i + 1 < n \
                and toks[i + 1].text == "(":
            hdr_end = match_balanced(toks, i + 1)
            header = toks[i + 2:hdr_end - 1]
            # Range-for: a top-level single ':' inside the header.
            colon = -1
            depth = 0
            for idx, t in enumerate(header):
                if t.text in _OPEN:
                    depth += 1
                elif t.text in (")", "}", "]"):
                    depth -= 1
                elif t.text == ":" and depth == 0:
                    colon = idx
                    break
            target: Optional[str] = None
            if colon >= 0:
                target = _final_ident(header[colon + 1:])
            else:
                # Classic loop over iterators: look for `X.begin()` /
                # `X->begin()` in the init clause.
                for idx in range(len(header) - 2):
                    if header[idx + 1].text in (".", "->") and \
                            header[idx + 2].text == "begin" and \
                            header[idx].kind == "id":
                        target = header[idx].text
                        break
            body, nxt = _loop_body(toks, hdr_end)
            if target is not None:
                facts.iterations.append(
                    Iteration(line=toks[i].line, target=target, body=body))
            i = hdr_end  # re-scan the body for nested loops
            continue
        i += 1


def _parse_unordered(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    aliases: Set[str] = set()
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("unordered_map", "unordered_set",
                                         "unordered_multimap",
                                         "unordered_multiset"):
            # Alias? `using Name = std::unordered_...<...>`
            back = i - 1
            while back >= 0 and toks[back].text in ("::", "std"):
                back -= 1
            if back >= 1 and toks[back].text == "=" and \
                    toks[back - 1].kind == "id" and back >= 2 and \
                    toks[back - 2].text == "using":
                aliases.add(toks[back - 1].text)
            j = i + 1
            if j < n and toks[j].text == "<":
                j = match_template(toks, j)
            # Skip ref/pointer/const between the type and the name.
            while j < n and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < n and toks[j].kind == "id":
                facts.unordered_vars.add(toks[j].text)
            i = j
            continue
        i += 1
    # Second pass: variables declared with an alias type.
    if aliases:
        for i in range(n - 1):
            if toks[i].kind == "id" and toks[i].text in aliases and \
                    toks[i + 1].kind == "id":
                facts.unordered_vars.add(toks[i + 1].text)


def _parse_marks_and_catalog(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text in ("Mark", "CongestionGauge") and \
                i + 1 < n and toks[i + 1].text == "(":
            end = match_balanced(toks, i + 1)
            args = toks[i + 2:end - 1]
            # Split at top-level commas; the phase/key is argument #2
            # (Mark(trace, phase, ...) / CongestionGauge(out, key, value)).
            depth = 0
            arg_idx = 0
            name: Optional[Tok] = None
            for a in args:
                if a.text in _OPEN:
                    depth += 1
                elif a.text in (")", "}", "]"):
                    depth -= 1
                elif a.text == "," and depth == 0:
                    arg_idx += 1
                    continue
                if arg_idx == 1 and a.kind == "str" and name is None:
                    name = a
            if name is not None:
                if t.text == "Mark":
                    facts.mark_calls.append(MarkCall(line=name.line,
                                                     phase=name.text))
                else:
                    facts.gauge_calls.append(GaugeCall(line=name.line,
                                                       key=name.text))
            i = end
            continue
        if t.kind == "id" and \
                t.text in ("kTracePhases", "kCongestionGaugeKeys"):
            # Only a *declaration* (`... kTracePhases[] = { ... }`) defines
            # the catalog: require an `=` before the brace so a use site
            # (e.g. a range-for over the catalog) doesn't swallow the
            # following block's string literals as catalog entries.
            j = i + 1
            saw_eq = False
            while j < n and toks[j].text not in ("{", ";"):
                if toks[j].text == "=":
                    saw_eq = True
                j += 1
            if j < n and toks[j].text == "{" and saw_eq:
                end = match_balanced(toks, j)
                entries = [a.text for a in toks[j + 1:end - 1]
                           if a.kind == "str"]
                if t.text == "kTracePhases":
                    facts.trace_catalog = entries
                    facts.trace_catalog_line = t.line
                else:
                    facts.gauge_catalog = entries
                    facts.gauge_catalog_line = t.line
                i = end
                continue
        i += 1


# ---------------------------------------------------------------------------
# function definitions / declarations and call sites
# ---------------------------------------------------------------------------

# Keywords that can directly precede a '(' without being a call or a
# function name. `operator` is included: overloaded operators are not
# interesting call-graph nodes for the rules bplint runs.
_NON_FN_IDS = {
    "if", "for", "while", "switch", "return", "co_return", "sizeof",
    "alignof", "decltype", "catch", "new", "delete", "throw", "do",
    "else", "case", "default", "operator", "assert", "defined",
    "static_assert", "alignas", "noexcept", "typeid",
}
# Statement heads a return-type walk-back must stop at.
_HEAD_STOP = {";", "{", "}", ":", ",", "(", ")"}
_RET_SKIP_HEADS = {"public", "private", "protected", "template", "typename",
                   "virtual", "explicit", "friend", "using"}


def _brace_kind(toks: Sequence[Tok], i: int) -> str:
    """Classifies the '{' at toks[i]: 'ns', 'type', or 'block'."""
    j = i - 1
    header: List[str] = []
    while j >= 0 and toks[j].text not in (";", "{", "}") and len(header) < 32:
        header.append(toks[j].text)
        j -= 1
    if "namespace" in header:
        return "ns"
    if {"struct", "class", "union", "enum"} & set(header) and \
            "=" not in header:
        return "type"
    return "block"


def _type_name_before(toks: Sequence[Tok], i: int) -> Optional[str]:
    """The declared name of the struct/class whose body opens at toks[i]."""
    j = i - 1
    while j >= 0 and toks[j].text not in (";", "{", "}") and i - j < 32:
        if toks[j].text in ("struct", "class", "union", "enum"):
            k = j + 1
            if k < i and toks[k].text in ("class", "struct"):
                k += 1
            while k < i and toks[k].text == "[":
                k = match_balanced(toks, k)
            if k < i and toks[k].kind == "id":
                return toks[k].text
            return None
        j -= 1
    return None


def _ret_type_before(toks: Sequence[Tok], end: int) -> str:
    """Return-type token texts ending just before index `end` (exclusive)."""
    parts: List[str] = []
    j = end - 1
    while j >= 0 and len(parts) < 12:
        t = toks[j]
        if t.text in _HEAD_STOP or t.text in _RET_SKIP_HEADS or \
                t.text == "=":
            break
        if t.text == ">":
            # Template argument list (e.g. StatusOr<T>): consume back to
            # the matching '<' so the template name lands in the type.
            depth = 1
            parts.append(t.text)
            j -= 1
            while j >= 0 and depth > 0:
                if toks[j].text == ">":
                    depth += 1
                elif toks[j].text == "<":
                    depth -= 1
                parts.append(toks[j].text)
                j -= 1
            continue
        parts.append(t.text)
        j -= 1
    drop = {"inline", "static", "constexpr", "extern", "virtual", "explicit"}
    parts = [p for p in parts if p not in drop]
    return " ".join(reversed(parts))


def _extract_calls(body: Sequence[Tok]) -> List[CallSite]:
    calls: List[CallSite] = []
    n = len(body)
    for i, t in enumerate(body):
        if t.kind != "id" or t.text in _NON_FN_IDS:
            continue
        if i + 1 >= n or body[i + 1].text != "(":
            continue
        recv: Optional[str] = None
        qual: Optional[str] = None
        if i >= 2 and body[i - 1].text == "::" and body[i - 2].kind == "id":
            qual = body[i - 2].text
        elif i >= 1 and body[i - 1].text in (".", "->"):
            if i >= 2 and body[i - 2].kind == "id":
                recv = body[i - 2].text
            else:
                recv = "?"  # chained off a call result / subscript
        calls.append(CallSite(line=t.line, name=t.text, recv=recv, qual=qual))
    return calls


def _lock_param_name(params: Sequence[Tok]) -> Optional[str]:
    """The name of a unique_lock& parameter, if the signature has one."""
    n = len(params)
    for i, t in enumerate(params):
        if t.kind == "id" and t.text == "unique_lock":
            j = i + 1
            if j < n and params[j].text == "<":
                j = match_template(params, j)
            while j < n and params[j].text in ("&", "*", "const"):
                j += 1
            if j < n and params[j].kind == "id":
                return params[j].text
    return None


def _parse_functions(toks: List[Tok], facts: FileFacts) -> None:
    """Collects every function/method definition and declaration.

    A single forward scan with a namespace/class context stack: function
    bodies are skipped wholesale once recorded, so call-looking tokens
    inside bodies can never masquerade as definitions."""
    n = len(toks)
    stack: List[Tuple[str, Optional[str]]] = []  # (kind, type name)
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "{":
            kind = _brace_kind(toks, i)
            name = _type_name_before(toks, i) if kind == "type" else None
            stack.append((kind, name))
            i += 1
            continue
        if t.text == "}":
            if stack:
                stack.pop()
            i += 1
            continue
        if t.text == "(" and i >= 1 and toks[i - 1].kind == "id" and \
                toks[i - 1].text not in _NON_FN_IDS and \
                all(k != "block" for k, _ in stack):
            nxt = _try_function(toks, i, stack, facts)
            if nxt > i:
                i = nxt
                continue
        i += 1


def _try_function(toks: List[Tok], paren: int,
                  stack: List[Tuple[str, Optional[str]]],
                  facts: FileFacts) -> int:
    """toks[paren] == '(' preceded by an identifier at namespace/class
    scope. Returns the index to resume at (past the def/decl), or paren
    when this is not a function at all."""
    n = len(toks)
    name_idx = paren - 1
    name = toks[name_idx].text
    line = toks[name_idx].line
    cls: Optional[str] = None
    head_end = name_idx  # exclusive end of the return-type region
    p = name_idx - 1
    if p >= 0 and toks[p].text == "~":  # destructor: Cls::~Cls()
        name = "~" + name
        p -= 1
        head_end = p + 1
    if p >= 1 and toks[p].text == "::" and toks[p - 1].kind == "id":
        cls = toks[p - 1].text
        head_end = p - 1
    elif stack and stack[-1][0] == "type" and stack[-1][1]:
        cls = stack[-1][1]
    ret = _ret_type_before(toks, head_end)

    close = match_balanced(toks, paren)
    params = list(toks[paren + 1:close - 1])
    k = close
    while k < n and toks[k].kind == "id" and \
            toks[k].text in ("const", "noexcept", "override", "final",
                             "mutable", "try"):
        k += 1
    if k < n and toks[k].text == "->":  # trailing return type
        k += 1
        while k < n and toks[k].text not in ("{", ";"):
            if toks[k].text == "<":
                k = match_template(toks, k)
                continue
            k += 1
    if k < n and toks[k].text == "=":
        # `= default;` / `= delete;` / `= 0;` — declaration-like.
        while k < n and toks[k].text != ";":
            k += 1
        return k + 1
    if k < n and toks[k].text == ":":  # constructor initializer list
        k += 1
        while k < n and toks[k].text not in (";",):
            if toks[k].text in ("(", "["):
                k = match_balanced(toks, k)
                continue
            if toks[k].text == "{":
                if toks[k - 1].kind == "id":  # brace-init member
                    k = match_balanced(toks, k)
                    continue
                break  # the function body
            k += 1
    if k < n and toks[k].text == ";":
        return k + 1  # prototype (or a variable with ctor arguments)
    if k >= n or toks[k].text != "{":
        return paren  # not a function after all (expression, macro, ...)
    body_end = match_balanced(toks, k)
    body = list(toks[k + 1:body_end - 1])
    fn = FunctionDef(path=facts.path, cls=cls, name=name, line=line,
                     ret=ret, params=params, body=body,
                     calls=_extract_calls(body),
                     lock_param=_lock_param_name(params))
    facts.fn_defs.append(fn)
    return body_end


# ---------------------------------------------------------------------------
# timer facts (BP010)
# ---------------------------------------------------------------------------

_SCHEDULE_NAMES = ("Schedule", "ScheduleAt")


def schedule_sites(body: Sequence[Tok]) -> List[ScheduleSite]:
    sites: List[ScheduleSite] = []
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        if t.kind != "id" or t.text not in _SCHEDULE_NAMES or \
                i + 1 >= n or body[i + 1].text != "(":
            i += 1
            continue
        end = match_balanced(body, i + 1)
        args = body[i + 2:end - 1]
        site = ScheduleSite(line=t.line, handle=None, discarded=True)
        for ci, ct in enumerate(args):
            if ct.kind == "id" and ci + 1 < len(args) and \
                    args[ci + 1].text == "(" and ct.text not in _NON_FN_IDS:
                site.lambda_calls.add(ct.text)
            if ct.text == "=" and ci >= 1 and args[ci - 1].kind == "id" and \
                    (ci + 1 >= len(args) or args[ci + 1].text != "="):
                site.lambda_assigns.add(args[ci - 1].text)
        # Walk backwards to find what happens to the returned TimerId.
        p = i - 1
        steps = 0
        while p >= 0 and steps < 48:
            tt = body[p].text
            if tt in (";", "{", "}"):
                break  # statement-position call: result dropped
            if tt in ("return", ",", "(") or tt == "co_return":
                site.discarded = False  # escapes to the caller / an arg
                break
            if tt == "=":
                site.discarded = False
                if p >= 1 and body[p - 1].kind == "id":
                    site.handle = body[p - 1].text
                break
            if tt == ")":
                depth = 1
                p -= 1
                while p >= 0 and depth > 0:
                    if body[p].text == ")":
                        depth += 1
                    elif body[p].text == "(":
                        depth -= 1
                    p -= 1
                steps += 1
                continue
            p -= 1
            steps += 1
        sites.append(site)
        i = end
    return sites


def _parse_cancels(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text == "Cancel" and i + 1 < n and \
                toks[i + 1].text == "(":
            end = match_balanced(toks, i + 1)
            for a in toks[i + 2:end - 1]:
                if a.kind == "id":
                    facts.cancel_args.add(a.text)
            i = end
            continue
        i += 1


# ---------------------------------------------------------------------------
# lambdas
# ---------------------------------------------------------------------------

def _lambda_body_span(toks: Sequence[Tok], i: int) -> Optional[Tuple[int, int]]:
    """toks[i] == '['. Returns the (start, end) token span of the lambda
    body when this really is a lambda, else None."""
    n = len(toks)
    j = match_balanced(toks, i)  # past the capture list
    if j < n and toks[j].text == "(":
        j = match_balanced(toks, j)
    while j < n and toks[j].kind == "id" and \
            toks[j].text in ("mutable", "noexcept", "constexpr"):
        j += 1
    if j < n and toks[j].text == "->":
        j += 1
        while j < n and toks[j].text not in ("{", ";", ")"):
            if toks[j].text == "<":
                j = match_template(toks, j)
                continue
            j += 1
    if j < n and toks[j].text == "{":
        return j + 1, match_balanced(toks, j) - 1
    return None


def _parse_usage_contexts(toks: List[Tok], facts: FileFacts) -> None:
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind == "str":
            facts.string_literals.add(t.text)
        if t.kind == "id":
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            if prev in ("==", "!=") or nxt in ("==", "!="):
                facts.cmp_idents.add(t.text)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def analyze_file(path: str, text: str) -> FileFacts:
    toks, comments = lex(text)
    facts = FileFacts(path=path, tokens=toks)

    for line, comment in comments:
        m = SUPPRESS_RE.search(comment)
        if m:
            rules = tuple(r.strip() for r in m.group(1).split(","))
            facts.suppressions.append(
                Suppression(line=line, rules=rules, reason=m.group(2).strip()))
            continue
        for marker in MARKER_RE.findall(comment):
            if marker != "allow":
                facts.markers.add(marker)

    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "id" and t.text == "enum":
            i = _parse_enum(toks, i, facts)
            continue
        if t.kind == "id" and t.text in ("struct", "class"):
            nxt = _parse_struct(toks, i, facts)
            if nxt <= i:
                nxt = i + 1
            i = nxt
            continue
        i += 1

    _parse_out_of_line(toks, facts)

    i = 0
    while i < n:
        if toks[i].kind == "id" and toks[i].text == "switch":
            i = _parse_switch(toks, i, facts)
            continue
        i += 1

    _parse_iterations(toks, facts)
    _parse_unordered(toks, facts)
    _parse_marks_and_catalog(toks, facts)
    _parse_usage_contexts(toks, facts)
    _parse_functions(toks, facts)
    _parse_cancels(toks, facts)
    return facts
