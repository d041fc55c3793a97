"""The bplint rule catalog (BP001-BP011 + BP000 meta checks).

Each rule is a function over the Project (all analyzed files' facts)
that yields Diagnostic objects. Diagnostics are deduplicated and sorted
by the engine, so rules are free to emit in any order.

Since v2 the Project carries a call graph (callgraph.py), and the
reachability rules are interprocedural: BP002 and BP005 flag a
forbidden sink reached through ANY chain of project helpers, with the
witness chain spelled out in the diagnostic. The flow-sensitive family
BP008-BP011 targets the concurrency/error-handling bug classes this
repo has actually hit (see DESIGN.md section 15).

Rule catalog (see DESIGN.md sections 11 and 15 for the rationale):

  BP001  unordered-container iteration whose order escapes into wire
         encoding, digests, JSON/metrics export, or event scheduling.
  BP002  forbidden entropy/time sources outside src/sim and bench/
         (all randomness must flow from the seeded simulator RNG).
  BP003  wire-struct field coverage: every field of a struct in a
         `bplint:wire-coverage` header must appear in its Encode,
         Decode, and digest path (authentication material — Signature
         and QuorumCert fields — is digest-exempt: it attests the
         canonical bytes, so it cannot also be covered by them).
  BP004  message-type dispatch exhaustiveness: switches over
         *MessageType enums must be exhaustive or carry a default, and
         every enumerator must be dispatched somewhere in the project.
  BP005  no floating point in consensus/state-machine/digest paths
         (src/core, src/pbft, src/paxos, src/crypto, or files marked
         `bplint:consensus-path`).
  BP006  metrics/trace hygiene: every *Stats counter is registered
         with MetricsRegistry, every Tracer::Mark phase is in the
         kTracePhases catalog (and vice versa), and every
         CongestionGauge key is in the kCongestionGaugeKeys catalog
         (and vice versa).
  BP008  discarded Status/StatusOr results in src/: an unchecked error
         is a silent failure (the PR 2 transport-drop bug class).
  BP009  lock-scope discipline in code that uses lock_guard/unique_lock:
         callbacks, Send, or Drain must not be reachable — directly or
         through any call chain — while a lock scope is open (the PR 6
         RunBatch-nested-Drain deadlock class). Functions taking a
         unique_lock& parameter are analyzed entry-locked with their own
         unlock()/lock() toggles honored, so the unlock-before-invoke
         handoff idiom proves itself clean.
  BP010  timer hygiene in files that manage cancellable timers: every
         Schedule'd handle must reach a Cancel or a self-rearm (the
         PR 1 Simulator Cancel-leak class), and a discarded Schedule
         result that never re-arms can neither be cancelled nor
         re-armed at all.
  BP011  bounded decode: a wire-controlled count must be bounded by the
         decoder's remaining bytes before it flows into reserve/resize
         (the PR 3 DecodeBatch attacker-chosen-allocation class).
  BP000  linter hygiene: malformed or unused `bplint:allow` comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from callgraph import CallGraph, Key, key_str, render_chain
from cppmodel import (CallSite, Enum, FileFacts, FunctionDef, Struct, Tok,
                      _NON_FN_IDS, _lambda_body_span, match_balanced,
                      match_template, schedule_sites)

RULE_DESCRIPTIONS = [
    ("BP001", "unordered-container iteration order escapes into an "
              "order-sensitive sink (wire encoding, digest, JSON/metrics "
              "export, event scheduling)"),
    ("BP002", "forbidden entropy/time source outside src/sim and bench/ "
              "(use the seeded simulator RNG / simulated clock)"),
    ("BP003", "wire-struct field missing from its Encode, Decode, or "
              "digest path (bplint:wire-coverage headers)"),
    ("BP004", "message-type enum dispatch is non-exhaustive or an "
              "enumerator is never dispatched"),
    ("BP005", "floating point in a consensus/state-machine/digest path"),
    ("BP006", "metrics counter not registered with MetricsRegistry, "
              "trace phase mark outside the kTracePhases catalog, or "
              "congestion gauge key outside kCongestionGaugeKeys"),
    ("BP008", "Status/StatusOr result silently discarded in src/ "
              "(an unchecked error is a silent failure)"),
    ("BP009", "callback, Send, or Drain reachable — directly or through "
              "a call chain — while a lock_guard/unique_lock scope is "
              "open"),
    ("BP010", "Schedule'd timer handle never reaches a Cancel or a "
              "self-rearm (leaked or orphaned timer)"),
    ("BP011", "wire-controlled count flows into reserve/resize without "
              "a remaining-bytes bound (attacker-chosen allocation)"),
]

ALL_RULES = [r for r, _ in RULE_DESCRIPTIONS]


@dataclass(frozen=True, order=True)
class Diagnostic:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"

    def __str__(self) -> str:
        return self.render()


class Project:
    """All analyzed files plus the cross-file indexes rules need."""

    def __init__(self, files: Sequence[FileFacts]):
        self.files = list(files)
        self.unordered_vars: Set[str] = set()
        self.string_literals: Set[str] = set()
        self.case_idents: Set[str] = set()
        self.cmp_idents: Set[str] = set()
        self.message_enums: List[Tuple[FileFacts, Enum]] = []
        self.enumerator_owner: Dict[str, Enum] = {}
        # (class, method) -> bodies, merged across files.
        self.methods: Dict[Tuple[str, str], List[List[Tok]]] = {}
        for f in self.files:
            self.unordered_vars |= f.unordered_vars
            self.string_literals |= f.string_literals
            self.case_idents |= f.case_idents
            self.cmp_idents |= f.cmp_idents
            for enum in f.enums:
                if enum.is_message_type:
                    self.message_enums.append((f, enum))
                    for name, _ in enum.enumerators:
                        self.enumerator_owner[name] = enum
            for key, bodies in f.out_of_line.items():
                self.methods.setdefault(key, []).extend(bodies)
            for struct in f.structs:
                for mname, bodies in struct.methods.items():
                    self.methods.setdefault((struct.name, mname),
                                            []).extend(bodies)

        # v2: the project-wide call graph and the indexes the
        # interprocedural rules consult.
        self.graph = CallGraph(self.files)
        self.cancel_args: Set[str] = set()
        # A name is Status-returning only when every known signature
        # (definition or prototype) with that name agrees — a single
        # void/bool overload disqualifies it, so a statement-position
        # call can never be misflagged through an overload set.
        status_yes: Set[str] = set()
        status_no: Set[str] = set()
        for f in self.files:
            self.cancel_args |= f.cancel_args
            for fn in f.fn_defs:
                _note_status(status_yes, status_no, fn.name, fn.ret)
            for decl in f.fn_decls:
                _note_status(status_yes, status_no, decl.name, decl.ret)
        self.status_fns: Set[str] = status_yes - status_no

    def bodies_of(self, cls: str, names: Iterable[str]) -> List[List[Tok]]:
        out: List[List[Tok]] = []
        for name in names:
            out.extend(self.methods.get((cls, name), []))
        return out


def _note_status(yes: Set[str], no: Set[str], name: str, ret: str) -> None:
    parts = ret.split()
    if "Status" in parts or "StatusOr" in parts:
        yes.add(name)
    else:
        no.add(name)


def _fn_key(fn: FunctionDef) -> Key:
    return (fn.cls or "", fn.name)


def _chain_call_line(graph: CallGraph, fn: FunctionDef, nxt: Key) -> int:
    """The first call site in `fn` that resolves to `nxt` (chain hop 1)."""
    best = 0
    for call in fn.calls:
        if nxt in graph.resolve(fn, call) and (best == 0 or call.line < best):
            best = call.line
    return best or fn.line


# ---------------------------------------------------------------------------
# BP001
# ---------------------------------------------------------------------------

# Identifier prefixes/names whose reachability from an unordered loop
# means iteration order escaped into something order-sensitive.
_SINK_PREFIXES = ("Put", "Append", "Encode", "Sha256", "Digest")
_SINK_IDENTS = {
    "EncodeTo", "Update", "ToJson", "ToChromeTrace", "Json", "Schedule",
    "ScheduleAt", "Send", "SendTo", "SendShared", "Broadcast", "Increment",
    "write", "append", "ContentDigest",
}


def _first_sink(body: Sequence[Tok]) -> Tuple[str, int]:
    for t in body:
        if t.kind == "id":
            if t.text in _SINK_IDENTS or \
                    any(t.text.startswith(p) for p in _SINK_PREFIXES):
                return t.text, t.line
        elif t.kind == "punct" and t.text == "<<":
            return "<<", t.line
    return "", 0


def rule_bp001(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        for it in f.iterations:
            if it.target not in project.unordered_vars:
                continue
            sink, _ = _first_sink(it.body)
            if not sink:
                continue
            yield Diagnostic(
                f.path, it.line, "BP001",
                f"iteration over unordered container '{it.target}' reaches "
                f"order-sensitive sink '{sink}'; iterate a sorted copy or "
                f"use an ordered container")


# ---------------------------------------------------------------------------
# BP002
# ---------------------------------------------------------------------------

_ENTROPY_IDENTS = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand", "ranlux24",
    "default_random_engine", "system_clock", "steady_clock",
    "high_resolution_clock", "clock_gettime", "gettimeofday", "srand",
    "timespec_get", "getrandom", "arc4random",
}
# Flagged only in call position (bare or std::-qualified).
_ENTROPY_CALLS = {"rand", "time", "clock"}


def _bp002_exempt(path: str) -> bool:
    return path.startswith(("src/sim/", "bench/")) or "/sim/" in path


def rule_bp002(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        if _bp002_exempt(f.path):
            continue
        toks = f.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text in _ENTROPY_IDENTS:
                yield Diagnostic(
                    f.path, t.line, "BP002",
                    f"forbidden entropy/time source '{t.text}'; all "
                    f"randomness and time must come from the seeded "
                    f"simulator (sim::Rng, Simulator::Now)")
                continue
            if t.text in _ENTROPY_CALLS and i + 1 < n and \
                    toks[i + 1].text == "(":
                prev = toks[i - 1].text if i > 0 else ""
                prev_kind = toks[i - 1].kind if i > 0 else ""
                if prev in (".", "->"):
                    continue  # a method named rand()/time() on some object
                if prev == "::" and (i < 2 or toks[i - 2].text != "std"):
                    continue  # qualified into some non-std namespace
                if prev_kind == "id" and prev not in (
                        "return", "co_return", "throw", "case", "else",
                        "do", "std"):
                    continue  # declaration `Type time(...)`, not a call
                yield Diagnostic(
                    f.path, t.line, "BP002",
                    f"forbidden entropy/time source '{t.text}()'; all "
                    f"randomness and time must come from the seeded "
                    f"simulator (sim::Rng, Simulator::Now)")

    # Interprocedural pass: a non-exempt function that reaches a direct
    # entropy user through any chain of project helpers is flagged at the
    # call site that starts the chain. Seeds live only in non-exempt
    # files — tainting the sim's own (sanctioned) RNG internals would
    # flag every legitimate sim::Rng call.
    seeds: Dict[Key, str] = {}
    for f in project.files:
        if _bp002_exempt(f.path):
            continue
        for fn in f.fn_defs:
            src = _bp002_entropy_in(fn.body)
            if src:
                seeds.setdefault(_fn_key(fn), src)
    if not seeds:
        return
    taint = project.graph.taint_toward(seeds)
    for f in project.files:
        if _bp002_exempt(f.path):
            continue
        for fn in f.fn_defs:
            hit = taint.get(_fn_key(fn))
            if hit is None:
                continue
            src, chain = hit
            if len(chain) < 2:
                continue  # the direct use above already flagged it
            yield Diagnostic(
                f.path, _chain_call_line(project.graph, fn, chain[1]),
                "BP002",
                f"call chain {render_chain(chain)} reaches forbidden "
                f"entropy/time source '{src}'; all randomness and time "
                f"must come from the seeded simulator")


def _bp002_entropy_in(body: Sequence[Tok]) -> str:
    """The first forbidden entropy token in `body`, '' when clean."""
    n = len(body)
    for i, t in enumerate(body):
        if t.kind != "id":
            continue
        if t.text in _ENTROPY_IDENTS:
            return t.text
        if t.text in _ENTROPY_CALLS and i + 1 < n and \
                body[i + 1].text == "(":
            prev = body[i - 1].text if i > 0 else ""
            prev_kind = body[i - 1].kind if i > 0 else ""
            if prev in (".", "->"):
                continue
            if prev == "::" and (i < 2 or body[i - 2].text != "std"):
                continue
            if prev_kind == "id" and prev not in (
                    "return", "co_return", "throw", "case", "else",
                    "do", "std"):
                continue
            return t.text + "()"
    return ""


# ---------------------------------------------------------------------------
# BP003
# ---------------------------------------------------------------------------

_ENCODE_FNS = ("Encode", "EncodeTo")
_DECODE_FNS = ("Decode", "DecodeFrom")
_DIGEST_FNS = ("CanonicalBody", "CanonicalHeader", "ContentDigest", "Digest")


def _closure_idents(project: Project, cls: str,
                    bodies: List[List[Tok]]) -> Set[str]:
    """Identifiers in `bodies`, expanded through same-struct helper calls."""
    idents: Set[str] = set()
    seen_methods: Set[str] = set()
    queue = list(bodies)
    while queue:
        body = queue.pop()
        for t in body:
            if t.kind != "id":
                continue
            idents.add(t.text)
            if t.text not in seen_methods and \
                    (cls, t.text) in project.methods:
                seen_methods.add(t.text)
                queue.extend(project.methods[(cls, t.text)])
    return idents


def rule_bp003(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        if "wire-coverage" not in f.markers:
            continue
        for struct in f.structs:
            encode_bodies = project.bodies_of(struct.name, _ENCODE_FNS)
            if not encode_bodies:
                continue  # encoded inline by a parent message, if at all
            decode_bodies = project.bodies_of(struct.name, _DECODE_FNS)
            digest_bodies = project.bodies_of(struct.name, _DIGEST_FNS)
            encode_ids = _closure_idents(project, struct.name, encode_bodies)
            decode_ids = _closure_idents(project, struct.name, decode_bodies)
            digest_ids = _closure_idents(project, struct.name, digest_bodies)
            for fld in struct.fields:
                if fld.name not in encode_ids:
                    yield Diagnostic(
                        f.path, fld.line, "BP003",
                        f"field '{fld.name}' of {struct.name} is missing "
                        f"from its Encode path")
                if decode_bodies and fld.name not in decode_ids:
                    yield Diagnostic(
                        f.path, fld.line, "BP003",
                        f"field '{fld.name}' of {struct.name} is missing "
                        f"from its Decode path")
                # Authentication material is digest-exempt: signatures and
                # quorum certs attest the canonical bytes, so neither can be
                # covered by the digest they vouch for.
                if digest_bodies and "Signature" not in fld.type_str and \
                        "QuorumCert" not in fld.type_str and \
                        fld.name not in digest_ids:
                    yield Diagnostic(
                        f.path, fld.line, "BP003",
                        f"field '{fld.name}' of {struct.name} is missing "
                        f"from its digest/canonical path")


# ---------------------------------------------------------------------------
# BP004
# ---------------------------------------------------------------------------

def rule_bp004(project: Project) -> Iterable[Diagnostic]:
    # (a) per-switch exhaustiveness. MessageType is a plain uint32 on the
    # wire, so the compiler's -Wswitch-enum cannot check these switches;
    # bplint maps case labels back to their owning enum instead.
    for f in project.files:
        for sw in f.switches:
            owners: Dict[str, int] = {}
            for label, _, qualifier in sw.cases:
                enum = project.enumerator_owner.get(label)
                if enum is None:
                    continue
                if qualifier is not None and qualifier != enum.name:
                    continue  # `Other::kX` colliding with a message enum
                owners[enum.name] = owners.get(enum.name, 0) + 1
            if not owners:
                continue
            owner_name = sorted(owners.items(),
                                key=lambda kv: (-kv[1], kv[0]))[0][0]
            enum = next(e for _, e in project.message_enums
                        if e.name == owner_name)
            if sw.has_default:
                continue
            labels = {label for label, _, _ in sw.cases}
            missing = [name for name, _ in enum.enumerators
                       if name not in labels]
            if missing:
                yield Diagnostic(
                    f.path, sw.line, "BP004",
                    f"switch over {enum.name} is not exhaustive and has no "
                    f"default: missing {', '.join(missing)}")

    # (b) project-level: every message-type enumerator must be dispatched
    # (a case label or an ==/!= comparison) somewhere, or a freshly added
    # kGeoGapNotice-style type would be silently dropped by every handler.
    dispatched = project.case_idents | project.cmp_idents
    for f, enum in project.message_enums:
        for name, line in enum.enumerators:
            if name not in dispatched:
                yield Diagnostic(
                    f.path, line, "BP004",
                    f"message type {name} of {enum.name} is never "
                    f"dispatched by any handler switch or comparison")


# ---------------------------------------------------------------------------
# BP005
# ---------------------------------------------------------------------------

_FP_SCOPES = ("src/core/", "src/pbft/", "src/paxos/", "src/crypto/")
_FP_TOKENS = {"double", "float"}


def _bp005_in_scope(f: FileFacts) -> bool:
    return any(s in f.path for s in _FP_SCOPES) or \
        f.path.startswith(tuple(s.rstrip("/") for s in _FP_SCOPES)) or \
        "consensus-path" in f.markers


def rule_bp005(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        if not _bp005_in_scope(f):
            continue
        for t in f.tokens:
            if t.kind == "id" and t.text in _FP_TOKENS:
                yield Diagnostic(
                    f.path, t.line, "BP005",
                    f"floating-point type '{t.text}' in a consensus/"
                    f"state-machine/digest path; use integer arithmetic "
                    f"(permille fractions, integer nanoseconds)")

    # Interprocedural pass: consensus code calling an out-of-scope helper
    # that computes in floating point has smuggled FP into the decision
    # path just as surely as writing `double` locally. Seeds are
    # FP-using functions defined outside the scope (in-scope ones are
    # already flagged token-by-token above). sim/bench helpers are not
    # seeds — they never run under consensus — and neither is src/net/:
    # the network fabric models physical delay (bandwidth, RTT, jitter)
    # in double by design, which is simulation environment, not
    # consensus math.
    seeds: Dict[Key, str] = {}
    for f in project.files:
        if _bp005_in_scope(f) or _bp002_exempt(f.path) or \
                f.path.startswith("src/net/"):
            continue
        for fn in f.fn_defs:
            for t in fn.body:
                if t.kind == "id" and t.text in _FP_TOKENS:
                    seeds.setdefault(_fn_key(fn), t.text)
                    break
    if not seeds:
        return
    taint = project.graph.taint_toward(seeds)
    for f in project.files:
        if not _bp005_in_scope(f):
            continue
        for fn in f.fn_defs:
            hit = taint.get(_fn_key(fn))
            if hit is None:
                continue
            src, chain = hit
            if len(chain) < 2:
                continue
            yield Diagnostic(
                f.path, _chain_call_line(project.graph, fn, chain[1]),
                "BP005",
                f"call chain {render_chain(chain)} reaches helper using "
                f"floating-point type '{src}' from a consensus/"
                f"state-machine/digest path; use integer arithmetic")


# ---------------------------------------------------------------------------
# BP006
# ---------------------------------------------------------------------------

def rule_bp006(project: Project) -> Iterable[Diagnostic]:
    # (a) every counter field of a *Stats struct (a struct with a Reset()
    # method) must be registered under its own name with MetricsRegistry —
    # i.e. the field name must appear as a string literal somewhere.
    for f in project.files:
        for struct in f.structs:
            if not struct.name.endswith("Stats"):
                continue
            if "Reset" not in struct.methods and \
                    (struct.name, "Reset") not in project.methods:
                continue
            for fld in struct.fields:
                if fld.name not in project.string_literals:
                    yield Diagnostic(
                        f.path, fld.line, "BP006",
                        f"counter '{fld.name}' of {struct.name} is not "
                        f"registered with MetricsRegistry (no "
                        f"\"{fld.name}\" snapshot key anywhere)")

    # (b) trace-phase hygiene against the kTracePhases catalog.
    catalog: List[str] = []
    catalog_file: FileFacts = None  # type: ignore[assignment]
    catalog_line = 0
    for f in project.files:
        if f.trace_catalog:
            catalog.extend(p for p in f.trace_catalog if p not in catalog)
            if catalog_file is None:
                catalog_file = f
                catalog_line = f.trace_catalog_line
    if catalog:
        used: Set[str] = set()
        for f in project.files:
            for call in f.mark_calls:
                used.add(call.phase)
                if call.phase not in catalog:
                    yield Diagnostic(
                        f.path, call.line, "BP006",
                        f"trace phase \"{call.phase}\" is not in the "
                        f"kTracePhases catalog; add it (in pipeline order) "
                        f"or fix the call site")
        for phase in catalog:
            if phase not in used:
                yield Diagnostic(
                    catalog_file.path, catalog_line, "BP006",
                    f"kTracePhases entry \"{phase}\" has no Mark() call "
                    f"site: a span opened earlier can never close on it "
                    f"(stale catalog or missing instrumentation)")

    # (c) congestion-gauge hygiene against the kCongestionGaugeKeys
    # catalog: a key outside the catalog is invisible to the adaptive-
    # window dashboards/benches keyed on it, and a catalog entry nothing
    # emits means a documented gauge silently reads as absent.
    gauge_catalog: List[str] = []
    gauge_file: FileFacts = None  # type: ignore[assignment]
    gauge_line = 0
    for f in project.files:
        if f.gauge_catalog:
            gauge_catalog.extend(k for k in f.gauge_catalog
                                 if k not in gauge_catalog)
            if gauge_file is None:
                gauge_file = f
                gauge_line = f.gauge_catalog_line
    if gauge_catalog:
        emitted: Set[str] = set()
        for f in project.files:
            for call in f.gauge_calls:
                emitted.add(call.key)
                if call.key not in gauge_catalog:
                    yield Diagnostic(
                        f.path, call.line, "BP006",
                        f"congestion gauge key \"{call.key}\" is not in "
                        f"the kCongestionGaugeKeys catalog; add it or fix "
                        f"the emission site")
        for key in gauge_catalog:
            if key not in emitted:
                yield Diagnostic(
                    gauge_file.path, gauge_line, "BP006",
                    f"kCongestionGaugeKeys entry \"{key}\" has no "
                    f"CongestionGauge emission: the documented gauge "
                    f"silently reads as absent (stale catalog or missing "
                    f"instrumentation)")


# ---------------------------------------------------------------------------
# BP008 — discarded Status/StatusOr
# ---------------------------------------------------------------------------

def rule_bp008(project: Project) -> Iterable[Diagnostic]:
    if not project.status_fns:
        return
    for f in project.files:
        if _bp002_exempt(f.path):
            continue  # sim/bench may fire-and-forget advisory calls
        for fn in f.fn_defs:
            yield from _bp008_fn(project, f, fn)


def _bp008_fn(project: Project, f: FileFacts,
              fn: FunctionDef) -> Iterable[Diagnostic]:
    body = fn.body
    n = len(body)
    for i, t in enumerate(body):
        if t.kind != "id" or t.text not in project.status_fns:
            continue
        if i + 1 >= n or body[i + 1].text != "(":
            continue
        end = match_balanced(body, i + 1)
        if end < n and body[end].text != ";":
            continue  # result consumed (.ok(), comparison, argument, ...)
        # Walk back over the receiver chain (`a->b().Decode(...)`) to the
        # start of the full expression; only a statement-position call
        # discards its Status. A preceding `)` (e.g. a `(void)` cast or
        # an if-condition) means the result was handled or routed.
        p = i - 1
        while p >= 0 and body[p].text in (".", "->", "::"):
            p -= 1
            if p >= 0 and body[p].text == ")":
                depth = 1
                p -= 1
                while p >= 0 and depth > 0:
                    if body[p].text == ")":
                        depth += 1
                    elif body[p].text == "(":
                        depth -= 1
                    p -= 1
            elif p >= 0 and body[p].kind == "id":
                p -= 1
        if p >= 0 and body[p].text not in (";", "{", "}"):
            continue
        yield Diagnostic(
            f.path, t.line, "BP008",
            f"result of '{t.text}' (returns Status/StatusOr) is "
            f"discarded; an unchecked error is a silent failure — check "
            f"it, BP_RETURN_NOT_OK it, or cast to (void) with a comment")


# ---------------------------------------------------------------------------
# BP009 — lock-scope discipline
# ---------------------------------------------------------------------------

# Invoking any of these (or a stored callback) while a lock is held can
# re-enter the runner/transport and deadlock — the PR 6 RunBatch
# nested-Drain class.
_BP009_SINKS = {"Send", "SendTo", "SendShared", "Broadcast", "Drain"}
_BP009_LOCK_TYPES = {"lock_guard", "unique_lock", "scoped_lock",
                     "shared_lock"}
# Types whose values are invokable callbacks in this codebase.
_BP009_CB_TYPES = {"Callback", "function"}


def _bp009_cb_vars(fn: FunctionDef) -> Set[str]:
    """Names of parameters/locals declared with a callback type."""
    out: Set[str] = set()
    for toks in (fn.params, fn.body):
        n = len(toks)
        i = 0
        while i < n:
            t = toks[i]
            if t.kind == "id" and t.text in _BP009_CB_TYPES:
                j = i + 1
                if j < n and toks[j].text == "<":
                    j = match_template(toks, j)
                while j < n and toks[j].text in ("&", "*", "const"):
                    j += 1
                if j < n and toks[j].kind == "id" and \
                        (j + 1 >= n or toks[j + 1].text in
                         ("=", ";", ",", ")")):
                    out.add(toks[j].text)
                    i = j + 1
                    continue
            i += 1
    return out


def _bp009_direct_sink(fn: FunctionDef) -> Optional[str]:
    """The sink a CALLER's lock would cover: for ordinary functions any
    sink/callback invocation in the body (the caller's lock spans all of
    it); for unique_lock&-parameter functions only invocations while the
    handed-off lock is held (entry-locked, unlock()/lock() honored) —
    the unlock-before-invoke idiom proves itself clean. Lambda bodies
    are skipped: they run later, not under this lock."""
    cb = _bp009_cb_vars(fn)
    body = fn.body
    n = len(body)
    held = True
    i = 0
    while i < n:
        t = body[i]
        if t.text == "[":
            span = _lambda_body_span(body, i)
            if span is not None:
                i = span[1] + 1
                continue
        if fn.lock_param and t.kind == "id" and \
                t.text in ("unlock", "lock") and i >= 2 and \
                body[i - 1].text == "." and \
                body[i - 2].text == fn.lock_param and \
                i + 1 < n and body[i + 1].text == "(":
            held = (t.text == "lock")
            i = match_balanced(body, i + 1)
            continue
        if (held or not fn.lock_param) and t.kind == "id" and \
                i + 1 < n and body[i + 1].text == "(" and \
                (t.text in _BP009_SINKS or t.text in cb):
            return t.text
        i += 1
    return None


def rule_bp009(project: Project) -> Iterable[Diagnostic]:
    seeds: Dict[Key, str] = {}
    for f in project.files:
        for fn in f.fn_defs:
            sink = _bp009_direct_sink(fn)
            if sink:
                seeds.setdefault(_fn_key(fn), sink)
    taint = project.graph.taint_toward(seeds) if seeds else {}
    for f in project.files:
        for fn in f.fn_defs:
            yield from _bp009_fn(project, f, fn, taint)


def _bp009_fn(project: Project, f: FileFacts, fn: FunctionDef,
              taint: Dict[Key, Tuple[str, Tuple[Key, ...]]]
              ) -> Iterable[Diagnostic]:
    body = fn.body
    n = len(body)
    cb = _bp009_cb_vars(fn)
    # Active locks: [name, brace depth at declaration, currently held].
    locks: List[List] = []
    if fn.lock_param:
        locks.append([fn.lock_param, 0, True])
    if not locks and not any(
            t.kind == "id" and t.text in _BP009_LOCK_TYPES for t in body):
        return
    depth = 0
    i = 0
    while i < n:
        t = body[i]
        if t.text == "[":
            span = _lambda_body_span(body, i)
            if span is not None:
                i = span[1] + 1  # deferred execution: not under this lock
                continue
        if t.text == "{":
            depth += 1
            i += 1
            continue
        if t.text == "}":
            depth -= 1
            locks = [l for l in locks if l[1] <= depth]
            i += 1
            continue
        if t.kind == "id" and t.text in _BP009_LOCK_TYPES:
            j = i + 1
            if j < n and body[j].text == "<":
                j = match_template(body, j)
            if j + 1 < n and body[j].kind == "id" and \
                    body[j + 1].text in ("(", "{"):
                locks.append([body[j].text, depth, True])
                i = match_balanced(body, j + 1)
                continue
            i += 1
            continue
        if t.kind == "id" and t.text in ("unlock", "lock") and \
                i >= 2 and body[i - 1].text == "." and \
                body[i - 2].kind == "id" and \
                i + 1 < n and body[i + 1].text == "(":
            for lk in locks:
                if lk[0] == body[i - 2].text:
                    lk[2] = (t.text == "lock")
            i = match_balanced(body, i + 1)
            continue
        held = [lk for lk in locks if lk[2]]
        if held and t.kind == "id" and t.text not in _NON_FN_IDS and \
                i + 1 < n and body[i + 1].text == "(":
            lock_name = held[-1][0]
            if t.text in _BP009_SINKS:
                yield Diagnostic(
                    f.path, t.line, "BP009",
                    f"'{t.text}' called while lock '{lock_name}' is "
                    f"held; it can re-enter the runner/transport and "
                    f"deadlock — release the lock first")
            elif t.text in cb:
                yield Diagnostic(
                    f.path, t.line, "BP009",
                    f"callback '{t.text}' invoked while lock "
                    f"'{lock_name}' is held; callees may re-enter and "
                    f"deadlock — use the unlock-before-invoke idiom")
            else:
                d = _bp009_transitive_call(project, f, fn, body, i, held,
                                           taint)
                if d is not None:
                    yield d
        i += 1


def _bp009_transitive_call(project: Project, f: FileFacts, fn: FunctionDef,
                           body: Sequence[Tok], i: int, held: List[List],
                           taint: Dict[Key, Tuple[str, Tuple[Key, ...]]]
                           ) -> Optional[Diagnostic]:
    t = body[i]
    recv = qual = None
    if i >= 2 and body[i - 1].text == "::" and body[i - 2].kind == "id":
        qual = body[i - 2].text
    elif i >= 1 and body[i - 1].text in (".", "->"):
        recv = body[i - 2].text if i >= 2 and body[i - 2].kind == "id" \
            else "?"
    callees = project.graph.resolve(
        fn, CallSite(line=t.line, name=t.text, recv=recv, qual=qual))
    if not callees:
        return None
    end = match_balanced(body, i + 1)
    lock_names = {lk[0] for lk in held}
    passes_lock = any(a.kind == "id" and a.text in lock_names
                      for a in body[i + 2:end - 1])
    for key in callees:
        defs = project.graph.defs.get(key, [])
        if passes_lock and defs and all(d.lock_param for d in defs):
            # Lock handoff: the callee owns the unlock/relock protocol
            # and is analyzed entry-locked on its own.
            continue
        hit = taint.get(key)
        if hit is not None:
            sink, chain = hit
            return Diagnostic(
                f.path, t.line, "BP009",
                f"call chain {render_chain(chain)} reaches '{sink}' "
                f"while lock '{held[-1][0]}' is held; it can re-enter "
                f"and deadlock — release the lock first")
    return None


# ---------------------------------------------------------------------------
# BP010 — timer hygiene
# ---------------------------------------------------------------------------

def rule_bp010(project: Project) -> Iterable[Diagnostic]:
    graph = project.graph
    for f in project.files:
        # Only files that manage cancellable timers are in scope: a file
        # with Schedule but no Cancel anywhere is fire-and-forget by
        # design (network delivery events), and the sim owns the wheel.
        # Test code is exempt too — each test owns a simulator it tears
        # down at function end, and exercising Schedule without Cancel
        # is exactly what timer tests do.
        if _bp002_exempt(f.path) or f.path.startswith("tests/") or \
                not f.cancel_args:
            continue
        for fn in f.fn_defs:
            fkey = _fn_key(fn)
            for site in schedule_sites(fn.body):
                if not site.discarded and site.handle is None:
                    continue  # result escapes to the caller: their duty
                if _bp010_rearms(graph, fkey, fn.name, site):
                    continue
                if site.handle is not None:
                    if site.handle in project.cancel_args:
                        continue
                    yield Diagnostic(
                        f.path, site.line, "BP010",
                        f"timer handle '{site.handle}' from Schedule "
                        f"never reaches a Cancel and the callback never "
                        f"re-arms; a stale timer will fire into "
                        f"torn-down state")
                else:
                    yield Diagnostic(
                        f.path, site.line, "BP010",
                        f"Schedule result discarded and the callback "
                        f"never re-arms; the timer can neither be "
                        f"cancelled nor re-armed")


def _bp010_rearms(graph: CallGraph, fkey: Key, fname: str,
                  site) -> bool:
    """True when the scheduled lambda re-arms: it re-assigns the handle
    or calls something from which the scheduling function is reachable
    (the recursive-rearm idiom)."""
    if site.handle is not None and site.handle in site.lambda_assigns:
        return True
    for g in sorted(site.lambda_calls):
        if g == fname:
            return True
        for gk in graph.resolve_name(g):
            if fkey in graph.forward_closure([gk]):
                return True
    return False


# ---------------------------------------------------------------------------
# BP011 — bounded decode
# ---------------------------------------------------------------------------

_BP011_GETS = {"GetU8", "GetU16", "GetU32", "GetU64", "GetI64",
               "GetVarint", "GetVarint32", "GetVarint64"}
_BP011_REMAINING = {"remaining", "Remaining", "remaining_"}
_BP011_SINKS = {"reserve", "resize"}


def rule_bp011(project: Project) -> Iterable[Diagnostic]:
    for f in project.files:
        if _bp002_exempt(f.path):
            continue  # the sim decodes nothing wire-controlled
        for fn in f.fn_defs:
            yield from _bp011_fn(f, fn)


def _bp011_fn(f: FileFacts, fn: FunctionDef) -> Iterable[Diagnostic]:
    body = fn.body
    n = len(body)
    # Pass 1: wire-controlled counts (decoded straight off the wire).
    wire: Set[str] = set()
    for i, t in enumerate(body):
        if t.kind == "id" and t.text in _BP011_GETS and i + 3 < n and \
                body[i + 1].text == "(" and body[i + 2].text == "&" and \
                body[i + 3].kind == "id":
            wire.add(body[i + 3].text)
    if not wire:
        return
    # Pass 2: an if/while condition mentioning both the count and the
    # decoder's remaining bytes bounds it. A constant cap (`n > 4096`)
    # does NOT: it still lets a 20-byte message demand a 4096-element
    # allocation.
    guarded: Set[str] = set()
    for i, t in enumerate(body):
        if t.kind == "id" and t.text in ("if", "while") and i + 1 < n and \
                body[i + 1].text == "(":
            end = match_balanced(body, i + 1)
            idents = {c.text for c in body[i + 2:end - 1]
                      if c.kind == "id"}
            if idents & _BP011_REMAINING:
                guarded |= idents & wire
    # Pass 3: unbounded counts flowing into an allocation sink.
    flagged: Set[str] = set()
    for i, t in enumerate(body):
        if t.kind == "id" and t.text in _BP011_SINKS and i + 1 < n and \
                body[i + 1].text == "(":
            end = match_balanced(body, i + 1)
            for a in body[i + 2:end - 1]:
                if a.kind == "id" and a.text in wire and \
                        a.text not in guarded and a.text not in flagged:
                    flagged.add(a.text)
                    yield Diagnostic(
                        f.path, t.line, "BP011",
                        f"wire-controlled count '{a.text}' flows into "
                        f"'{t.text}' without a remaining-bytes bound; "
                        f"a short message can demand an arbitrary "
                        f"allocation — check it against "
                        f"decoder.remaining() first")


RULE_FNS = {
    "BP001": rule_bp001,
    "BP002": rule_bp002,
    "BP003": rule_bp003,
    "BP004": rule_bp004,
    "BP005": rule_bp005,
    "BP006": rule_bp006,
    "BP008": rule_bp008,
    "BP009": rule_bp009,
    "BP010": rule_bp010,
    "BP011": rule_bp011,
}
