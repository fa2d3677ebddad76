"""Cograph recognition, canonical cotrees, hierarchy levels, and verdicts.

The hierarchy classes are built from a single vertex by alternately closing
under finite joins (odd levels) and finite disjoint unions (even levels).
Recognition uses the classical split: a graph with at least two vertices is
a cograph iff it or its complement is disconnected, with the split parts
again cographs; a connected, co-connected graph contains an induced P4.

The split runs on an explicit stack over vertex bitmasks (bit i is the i-th
vertex), so neither recognition nor any other cotree walk here is limited
by the interpreter's recursion depth.  Each part is grown a whole BFS
frontier at a time, from the rows of the frontier or of the undiscovered
vertices, whichever are fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .graphs import SimplicialGraph, _least_p4, bit_indices, find_full_p3_union_pt


class EmptyGraphError(ValueError):
    pass


class NotApplicableError(ValueError):
    """Raised when an obstruction witness is requested for a smoothable graph."""


LEAF = "leaf"
JOIN = "join"
UNION = "union"

UNCOUNTABLE_PROJECTIVE = "UncountableProjective"
COUNTABLE_WITH_FINITE_ORBIT = "CountableWithFiniteOrbit"
NO_FAITHFUL_C1BV = "NoFaithfulC1bv"


@dataclass(frozen=True, eq=False, repr=False)
class Cotree:
    """Join/union decomposition tree with canonical alternation.

    Internal nodes have at least two children and never a child of their own
    kind; children are ordered by their smallest leaf in parent vertex order.
    Equality, hashing and repr walk the tree on explicit stacks and agree
    with what a plain frozen dataclass would give.
    """

    kind: str
    vertex: Optional[str] = None
    children: tuple["Cotree", ...] = ()

    def __post_init__(self):
        if self.kind == LEAF:
            if self.vertex is None or self.children:
                raise ValueError("leaf must carry a vertex and no children")
        elif self.kind in (JOIN, UNION):
            if self.vertex is not None or len(self.children) < 2:
                raise ValueError(f"{self.kind} node needs >= 2 children")
            if any(c.kind == self.kind for c in self.children):
                raise ValueError(f"{self.kind} node has a child of the same kind")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or _shape(self) == _shape(other)

    def __hash__(self):
        # hash((kind, vertex, children)), with each child's hash computed first
        return _fold(self, lambda node, kids: hash((node.kind, node.vertex, tuple(map(_Hashed, kids)))))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"Cotree(kind={item.kind!r}, vertex={item.vertex!r}, children=(")
            stack.append("))")
            for k in reversed(range(len(item.children))):
                stack.append(item.children[k])
                if k:
                    stack.append(", ")
        return "".join(out)

    def leaves(self) -> list[str]:
        return [node.vertex for node in _preorder(self) if node.kind == LEAF]

    def to_nested(self) -> list:
        return _fold(
            self,
            lambda node, kids: [LEAF, node.vertex] if node.kind == LEAF else [node.kind, *kids],
        )

    @staticmethod
    def from_nested(obj: list) -> "Cotree":
        return _fold(
            obj,
            lambda o, kids: Cotree(LEAF, vertex=o[1]) if o[0] == LEAF else Cotree(o[0], children=tuple(kids)),
            children=lambda o: () if o[0] == LEAF else o[1:],
        )


class _Hashed:
    """Stands in for a value whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _node_children(node: Cotree):
    return node.children


def _shape(tree: Cotree) -> list:
    """(kind, vertex, child count) of every node in pre-order: the tree up to identity."""
    return [(node.kind, node.vertex, len(node.children)) for node in _preorder(tree)]


def _preorder(root, children=_node_children) -> list:
    """Every node of a tree, each before its children and children in order."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children(node)))
    return order


def _fold(root, combine, children=_node_children):
    """combine(node, [values of its children]) over a tree, children first, without recursion."""
    value = {}
    for node in reversed(_preorder(root, children)):
        value[id(node)] = combine(node, [value[id(c)] for c in children(node)])
    return value[id(root)]


@dataclass(frozen=True)
class NotCograph:
    """Recognition failure carrying an induced-P4 witness (a, b, c, d)."""

    p4: tuple[str, str, str, str]


def _parts(rows, mask: int, complement: bool, seed: int) -> list[int]:
    """Components of the subgraph on `mask` (of its complement if asked), by first vertex.

    The first part grows from the bit `seed`, the others from their lowest
    vertex.  Each BFS round reads the rows of the smaller side: the frontier's,
    OR-ed (AND-ed for the complement), or the undiscovered vertices', each
    tested against the frontier.
    """
    parts, low = [], mask & -mask
    while mask:
        part = frontier = seed
        rest = mask ^ seed
        while frontier and rest:
            if frontier.bit_count() <= rest.bit_count():
                if complement:
                    common = -1
                    for i in bit_indices(frontier):
                        common &= rows[i]
                    frontier = rest & ~common
                else:
                    reach = 0
                    for i in bit_indices(frontier):
                        reach |= rows[i]
                    frontier = rest & reach
            else:
                found = 0
                for j in bit_indices(rest):
                    touch = rows[j] & frontier
                    if (touch != frontier) if complement else touch:
                        found |= 1 << j
                frontier = found
            part |= frontier
            rest ^= frontier
        parts.append(part)
        mask = rest
        seed = mask & -mask
    if not parts[0] & low:  # the seed's part goes after those with lower vertices
        parts.sort(key=lambda p: p & -p)
    return parts


def _seed(order, mask: int, end: int, step: int) -> tuple[int, int]:
    """The bit of the first vertex of `mask` in order[end], order[end + step], ...

    The scan stops after as many places as `mask` has vertices; the lowest
    vertex stands in if none of them is in `mask`.  Returns the bit and the
    place to start the next scan for any submask.
    """
    for _ in range(mask.bit_count()):
        v = order[end]
        if mask >> v & 1:
            return 1 << v, end
        end += step
    return mask & -mask, end


def decompose(g: SimplicialGraph) -> Union[Cotree, NotCograph]:
    """Canonical cotree of a cograph, or a NotCograph with its P4 witness.

    Parts are split in pre-order; the first part that is connected and
    co-connected stops the search, and its least induced P4 is the witness.
    Components grow from the vertex of greatest degree in the whole graph,
    co-components from that of least degree: for a chain of joins and
    unions, each split then reads a few rows.  Those vertices come from one
    degree order, whose window [low, high] narrows down the stack.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot decompose the empty graph")
    rows = g._bits
    degree = [row.bit_count() for row in rows]
    order = sorted(range(g.n), key=degree.__getitem__)
    nodes = []  # pre-order: [kind, vertex, child slots]
    stack = [((1 << g.n) - 1, None, 0, g.n - 1)]
    while stack:
        mask, parent, low, high = stack.pop()
        if parent is not None:
            nodes[parent][2].append(len(nodes))
        if mask & (mask - 1) == 0:
            nodes.append([LEAF, g.vertices[mask.bit_length() - 1], []])
            continue
        # a union's child is connected and a join's child co-connected
        above = nodes[parent][0] if parent is not None else None
        parts = [mask]
        if above != UNION:
            seed, high = _seed(order, mask, high, -1)
            parts = _parts(rows, mask, False, seed)
        kind = UNION
        if len(parts) == 1:
            if above != JOIN:
                seed, low = _seed(order, mask, low, 1)
                parts = _parts(rows, mask, True, seed)
            kind = JOIN
        if len(parts) == 1:
            p4 = _least_p4(g, mask)
            if p4 is None:  # connected + co-connected on >= 2 vertices has a P4
                raise AssertionError("connected, co-connected subgraph without P4")
            return NotCograph(p4)
        slot = len(nodes)
        nodes.append([kind, None, []])
        stack.extend((part, slot, low, high) for part in reversed(parts))
    built = [None] * len(nodes)
    for slot in reversed(range(len(nodes))):
        kind, vertex, kids = nodes[slot]
        built[slot] = Cotree(kind, vertex=vertex, children=tuple(built[c] for c in kids))
    return built[0]


def reconstruct(t: Cotree) -> SimplicialGraph:
    """Graph encoded by a cotree; inverse of decompose up to isomorphism.

    The leaves, which must be distinct, become the vertices in leaf order;
    each join node links every leaf of a child to every leaf of its siblings.
    """
    order = _preorder(t)
    leaves = [node.vertex for node in order if node.kind == LEAF]
    mask, bit = {}, 1 << len(leaves)
    for node in reversed(order):  # leaves come last-first, so bits run downwards
        if node.kind == LEAF:
            bit >>= 1
            mask[id(node)] = bit
        else:
            mask[id(node)] = sum(mask[id(c)] for c in node.children)
    # a leaf's row is what its join ancestors add: the parts beside its own branch
    row = {id(t): 0}
    for node in order:
        for c in node.children:
            row[id(c)] = row[id(node)]
            if node.kind == JOIN:
                row[id(c)] |= mask[id(node)] & ~mask[id(c)]
    return SimplicialGraph(tuple(leaves), tuple(row[id(node)] for node in order if node.kind == LEAF))


def hierarchy_level(t: Cotree) -> int:
    """Minimal hierarchy level of the graph encoded by the cotree.

    A leaf sits at level 0; a join needs the smallest odd level above all its
    children, a union the smallest even one.
    """

    def combine(node, kids):
        if node.kind == LEAF:
            return 0
        m = max(kids)
        if node.kind == JOIN:
            return m + 1 if m % 2 == 0 else m + 2
        return m + 1 if m % 2 == 1 else m + 2

    return _fold(t, combine)


@dataclass(frozen=True)
class SmoothabilityVerdict:
    c1: bool
    c1bv: bool
    c_infinity: bool
    c_omega: bool
    circle_class: str

    def __post_init__(self):
        if not self.c1 or self.c_infinity != self.c1bv or (self.c_omega and not self.c_infinity):
            raise AssertionError(f"inconsistent smoothability verdict: {self}")


@dataclass(frozen=True)
class Classification:
    cograph: bool
    level: Optional[int]
    cotree: Optional[Cotree]
    p4_witness: Optional[tuple[str, str, str, str]]
    verdict: SmoothabilityVerdict


def classify(g: SimplicialGraph) -> Classification:
    """Smoothability verdict for the right-angled Artin group on g.

    Every group here acts faithfully by C^1 diffeomorphisms.  C^{1+bv} and
    C-infinity actions exist exactly at hierarchy level <= 3, analytic ones
    exactly at level <= 2.  On the circle, level <= 2 groups admit uncountably
    many semi-conjugacy classes of faithful projective actions, level 3 groups
    only finitely-supported orbits and countably many classes, and beyond
    level 3 no faithful C^{1+bv} action exists at all.

    The graph is immutable, so the result is kept on it: classifying the
    same instance again, as witness() does, costs nothing.
    """
    cached = vars(g).get("_classification")
    if cached is None:
        cached = vars(g)["_classification"] = _classify(g)
    return cached


def _classify(g: SimplicialGraph) -> Classification:
    if g.n == 0:
        raise EmptyGraphError("cannot classify the empty graph")
    result = decompose(g)
    if isinstance(result, NotCograph):
        verdict = SmoothabilityVerdict(True, False, False, False, NO_FAITHFUL_C1BV)
        return Classification(False, None, None, result.p4, verdict)
    level = hierarchy_level(result)
    smooth = level <= 3
    analytic = level <= 2
    if analytic:
        circle = UNCOUNTABLE_PROJECTIVE
    elif level == 3:
        circle = COUNTABLE_WITH_FINITE_ORBIT
    else:
        circle = NO_FAITHFUL_C1BV
    verdict = SmoothabilityVerdict(True, smooth, smooth, analytic, circle)
    return Classification(True, level, result, None, verdict)


P4_CONJUGATE = "p4-conjugate"
P3_PLUS_POINT = "p3-plus-point"
TARGET_GROUP = "(F2 x Z) * Z"


@dataclass(frozen=True)
class EmbeddingWitness:
    """Four words generating (F2 x Z) * Z inside the ambient group.

    ``words`` are space-separated letter strings over vertex names.  For an
    induced P4 on (a, b, c, d) the generators are a, b, c and the conjugate
    d a d^-1; for a cograph above level 3 the four vertices of an induced
    P3-plus-point generate directly.
    """

    kind: str
    vertices: tuple[str, str, str, str]
    words: tuple[str, str, str, str]
    group: str = TARGET_GROUP


def witness(g: SimplicialGraph) -> EmbeddingWitness:
    """Obstruction witness for a graph with no faithful C^{1+bv} action."""
    cls = classify(g)
    if cls.verdict.c1bv:
        raise NotApplicableError("graph is C^{1+bv}-smoothable; no witness exists")
    if cls.p4_witness is not None:
        a, b, c, d = cls.p4_witness
        return EmbeddingWitness(
            P4_CONJUGATE, (a, b, c, d), (a, b, c, f"{d} {a} {d}^-1")
        )
    quad = find_full_p3_union_pt(g)
    if quad is None:  # every cograph above level 3 contains one
        raise AssertionError("cograph above level 3 without induced P3 + point")
    return EmbeddingWitness(P3_PLUS_POINT, quad, quad)
