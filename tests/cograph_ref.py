"""Reference cograph recognition and pattern searches, written the plain way.

These are the recursive split and the itertools.combinations scans that the
bitmask code in raagdyn.graphs and raagdyn.cotree replaced.  Tests compare
the fast code against them for exact equality: same cotree, same witness.
Recursion depth grows with the cotree depth, so use them on small graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from raagdyn.cotree import JOIN, LEAF, UNION, Cotree, NotCograph
from raagdyn.graphs import SimplicialGraph, full_subgraph


def split_components(g: SimplicialGraph, subset: list[str], complement: bool) -> list[list[str]]:
    inside = set(subset)
    unvisited = set(subset)
    comps = []
    for start in subset:
        if start not in unvisited:
            continue
        comp = []
        stack = [start]
        unvisited.discard(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            nbrs = g.neighbors(v)
            if complement:
                reach = [u for u in unvisited if u not in nbrs]
            else:
                reach = [u for u in unvisited if u in nbrs]
            for u in reach:
                unvisited.discard(u)
                stack.append(u)
        comps.append(comp)
    # order parts by first vertex in ambient order
    idx = {v: i for i, v in enumerate(g.vertices) if v in inside}
    for comp in comps:
        comp.sort(key=idx.__getitem__)
    comps.sort(key=lambda c: idx[c[0]])
    return comps


class _P4Found(Exception):
    def __init__(self, witness):
        self.witness = witness


def _decompose(g: SimplicialGraph, subset: list[str]) -> Cotree:
    if len(subset) == 1:
        return Cotree(LEAF, vertex=subset[0])
    comps = split_components(g, subset, complement=False)
    if len(comps) > 1:
        return Cotree(UNION, children=tuple(_decompose(g, c) for c in comps))
    cocomps = split_components(g, subset, complement=True)
    if len(cocomps) > 1:
        return Cotree(JOIN, children=tuple(_decompose(g, c) for c in cocomps))
    witness = find_full_p4(full_subgraph(g, subset))
    assert witness is not None, "connected, co-connected subgraph without P4"
    raise _P4Found(witness)


def decompose(g: SimplicialGraph):
    try:
        return _decompose(g, list(g.vertices))
    except _P4Found as found:
        return NotCograph(found.witness)


def find_full_p4(g: SimplicialGraph):
    for quad in itertools.combinations(g.vertices, 4):
        inside = [(u, v) for u, v in itertools.combinations(quad, 2) if g.adjacent(u, v)]
        if len(inside) != 3:
            continue
        deg = {v: 0 for v in quad}
        for u, v in inside:
            deg[u] += 1
            deg[v] += 1
        ends = [v for v in quad if deg[v] == 1]
        if len(ends) != 2 or any(deg[v] != 2 for v in quad if v not in ends):
            continue
        a = min(ends, key=g.index)
        d = ends[0] if ends[1] == a else ends[1]
        b = next(v for v in quad if v != a and g.adjacent(a, v))
        c = next(v for v in quad if v not in (a, b) and g.adjacent(b, v))
        return (a, b, c, d)
    return None


def find_full_p3(g: SimplicialGraph):
    for trip in itertools.combinations(g.vertices, 3):
        inside = [(u, v) for u, v in itertools.combinations(trip, 2) if g.adjacent(u, v)]
        if len(inside) != 2:
            continue
        counts = {v: 0 for v in trip}
        for u, v in inside:
            counts[u] += 1
            counts[v] += 1
        mid = next(v for v in trip if counts[v] == 2)
        ends = sorted((v for v in trip if v != mid), key=g.index)
        return (ends[0], mid, ends[1])
    return None


def find_full_p3_union_pt(g: SimplicialGraph):
    for quad in itertools.combinations(g.vertices, 4):
        inside = [(u, v) for u, v in itertools.combinations(quad, 2) if g.adjacent(u, v)]
        if len(inside) != 2:
            continue
        counts = {v: 0 for v in quad}
        for u, v in inside:
            counts[u] += 1
            counts[v] += 1
        if sorted(counts.values()) != [0, 1, 1, 2]:
            continue
        mid = next(v for v in quad if counts[v] == 2)
        iso = next(v for v in quad if counts[v] == 0)
        ends = sorted((v for v in quad if counts[v] == 1), key=g.index)
        return (ends[0], mid, ends[1], iso)
    return None


def threshold_graph(n: int, tag: str = "t") -> SimplicialGraph:
    """Alternating threshold graph: vertex i touches every earlier one when i is odd.

    It is a cograph whose cotree is a chain of n - 1 alternating nodes, at
    hierarchy level n - 1.
    """
    vs = [f"{tag}{i}" for i in range(n)]
    return SimplicialGraph.build(vs, [(vs[j], vs[i]) for i in range(1, n, 2) for j in range(i)])


def is_p3_plus_point(g: SimplicialGraph, quad) -> bool:
    """(a, b, c, d) induces exactly the edges ab and bc."""
    a, b, c, d = quad
    want = {frozenset((a, b)), frozenset((b, c))}
    return len(set(quad)) == 4 and all(
        g.adjacent(u, v) == (frozenset((u, v)) in want) for u, v in itertools.combinations(quad, 2)
    )


@dataclass(frozen=True)
class PlainCotree:
    """Cotree's fields in a plain frozen dataclass, with the generated, recursive
    __eq__, __hash__ and __repr__ (its repr is named "Cotree" to match)."""

    kind: str
    vertex: Optional[str] = None
    children: tuple["PlainCotree", ...] = ()


PlainCotree.__qualname__ = "Cotree"


def plain(t: Cotree) -> PlainCotree:
    return PlainCotree(t.kind, t.vertex, tuple(plain(c) for c in t.children))
