"""Project-wide call graph over cppmodel FunctionDefs.

Nodes are (class, name) pairs — '' for free functions — so an overload
set is a single node whose facts are the union of every overload's body
(conservative: a taint on any overload taints the set). Edges come from
CallSite resolution:

  * `Cls::Fn(...)`            -> (Cls, Fn) when the project defines it
  * bare `Fn(...)`            -> same-class method first, then the free
                                 function — mirroring C++ name lookup
  * `recv.Fn(...)/recv->Fn()` -> the class of `recv` when `recv` is a
                                 data member with a project-defined type
                                 (method resolution through member
                                 calls); otherwise the unique project
                                 class defining `Fn`, if there is
                                 exactly one (ambiguous overload sets
                                 across classes stay unresolved — the
                                 graph degrades to silence, never to a
                                 guessed edge)

Taint queries run over the graph in both directions:

  * taint_toward(seeds): every node that can REACH a seed through any
    call chain, with a deterministic witness chain for diagnostics
    (ties broken by smallest node key, so output is byte-stable).
  * forward_closure(roots): every node reachable FROM the roots — used
    by BP010 to recognise a timer callback that re-arms through helpers.

Cycles are handled naturally by the BFS visited sets; recursion neither
loops nor double-taints.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from cppmodel import CallSite, FileFacts, FunctionDef

Key = Tuple[str, str]  # (class or '', function name)


def key_str(key: Key) -> str:
    cls, name = key
    return f"{cls}::{name}" if cls else name


class CallGraph:
    def __init__(self, files: Sequence[FileFacts]):
        self.defs: Dict[Key, List[FunctionDef]] = {}
        self.owners: Dict[str, List[str]] = {}  # method name -> classes
        self.field_type: Dict[Tuple[str, str], str] = {}
        known_classes: Set[str] = set()

        for f in files:
            for fn in f.fn_defs:
                key = (fn.cls or "", fn.name)
                self.defs.setdefault(key, []).append(fn)
                if fn.cls:
                    known_classes.add(fn.cls)
                    owners = self.owners.setdefault(fn.name, [])
                    if fn.cls not in owners:
                        owners.append(fn.cls)
        for f in files:
            for struct in f.structs:
                for fld in struct.fields:
                    for part in fld.type_str.split():
                        if part in known_classes:
                            self.field_type[(struct.name, fld.name)] = part
                            break

        # Edges, deterministically ordered: callee keys per caller key.
        self.edges: Dict[Key, List[Key]] = {}
        self.redges: Dict[Key, List[Key]] = {}
        for key in sorted(self.defs):
            seen: Set[Key] = set()
            out: List[Key] = []
            for fn in self.defs[key]:
                for call in fn.calls:
                    for callee in self.resolve(fn, call):
                        if callee not in seen and callee != key:
                            seen.add(callee)
                            out.append(callee)
            out.sort()
            self.edges[key] = out
            for callee in out:
                self.redges.setdefault(callee, []).append(key)
        for callers in self.redges.values():
            callers.sort()

    # -- resolution --------------------------------------------------------

    def resolve(self, fn: FunctionDef, call: CallSite) -> List[Key]:
        name = call.name
        if call.qual is not None:
            if (call.qual, name) in self.defs:
                return [(call.qual, name)]
            if ("", name) in self.defs:
                return [("", name)]  # namespace-qualified free function
            return []
        if call.recv is None or call.recv == "this":
            if fn.cls and (fn.cls, name) in self.defs:
                return [(fn.cls, name)]
            if ("", name) in self.defs:
                return [("", name)]
            return []
        # Member call through a receiver: a declared data member of a
        # project class wins; otherwise accept a project-unique method.
        if fn.cls:
            ftype = self.field_type.get((fn.cls, call.recv))
            if ftype and (ftype, name) in self.defs:
                return [(ftype, name)]
        owners = self.owners.get(name, [])
        if len(owners) == 1 and (owners[0], name) in self.defs:
            return [(owners[0], name)]
        return []

    def resolve_name(self, name: str) -> List[Key]:
        """All nodes a bare name could denote (free fn + every class)."""
        out: List[Key] = []
        if ("", name) in self.defs:
            out.append(("", name))
        for cls in self.owners.get(name, []):
            out.append((cls, name))
        return sorted(out)

    # -- closures ----------------------------------------------------------

    def forward_closure(self, roots: Iterable[Key]) -> Set[Key]:
        seen: Set[Key] = set()
        queue = deque(sorted(set(r for r in roots if r in self.defs)))
        seen.update(queue)
        while queue:
            key = queue.popleft()
            for callee in self.edges.get(key, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append(callee)
        return seen

    def taint_toward(self, seeds: Dict[Key, str]) \
            -> Dict[Key, Tuple[str, Tuple[Key, ...]]]:
        """For every node that can reach a seed: (seed info, witness
        chain from the node to the seed, both endpoints included).

        BFS level by level with sorted frontiers: the witness for a node
        is always the shortest chain, ties broken by the smallest next
        hop, so diagnostics are byte-identical run to run."""
        info: Dict[Key, str] = {}
        next_hop: Dict[Key, Optional[Key]] = {}
        frontier = sorted(k for k in seeds if k in self.defs)
        for k in frontier:
            info[k] = seeds[k]
            next_hop[k] = None
        while frontier:
            nxt: List[Key] = []
            for key in frontier:
                for caller in self.redges.get(key, ()):
                    if caller not in info:
                        info[caller] = info[key]
                        next_hop[caller] = key
                        nxt.append(caller)
            frontier = sorted(set(nxt))
        out: Dict[Key, Tuple[str, Tuple[Key, ...]]] = {}
        for key in info:
            chain: List[Key] = [key]
            cur = key
            while next_hop[cur] is not None:
                cur = next_hop[cur]
                chain.append(cur)
            out[key] = (info[key], tuple(chain))
        return out


def render_chain(chain: Sequence[Key]) -> str:
    return " -> ".join(key_str(k) for k in chain)
