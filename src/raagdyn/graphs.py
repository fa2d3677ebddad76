"""Finite simplicial graphs: full subgraphs, join/union constructors, P3/P4 search.

Vertices are opaque strings kept in a fixed order; that order is what makes
pattern searches and serialization deterministic.  Adjacency is stored once,
as one bitmask per vertex over that order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


class GraphError(ValueError):
    pass


class UnknownVertexError(GraphError):
    pass


class GraphParseError(GraphError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class SimplicialGraph:
    """Finite loopless undirected graph.

    ``vertices`` is an ordered tuple of distinct identifiers; ``_bits`` holds
    one adjacency row per vertex, bit j of entry i set iff vertices i and j
    touch (the rows must be symmetric).  ``edges`` is derived from the rows:
    pairs (u, v) with u before v in vertex order.  Instances are immutable and
    all operations on them are pure, so derived values are cached on the
    instance: ``edges``, the vertex index, and cotree.classify's verdict.
    """

    vertices: tuple[str, ...]
    _bits: tuple[int, ...]

    def __post_init__(self):
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex identifiers")
        if len(self._bits) != n:
            raise GraphError(f"{len(self._bits)} adjacency rows for {n} vertices")
        for i, row in enumerate(self._bits):
            if row >> i & 1:
                raise GraphError(f"loop at vertex {self.vertices[i]!r}")
            if row < 0 or row >> n:
                raise GraphError(f"row of vertex {self.vertices[i]!r} mentions unknown vertex")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "SimplicialGraph":
        """Construct from edges in any orientation; repeated edges collapse, loops are refused."""
        vs = tuple(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for u, v in edges:
            i, j = pos.get(u), pos.get(v)
            if i is None or j is None:
                raise GraphError(f"edge ({u!r}, {v!r}) mentions unknown vertex")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return SimplicialGraph(vs, tuple(rows))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.sorted_edges())

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def adjacent(self, u: str, v: str) -> bool:
        return self._bits[self._index[u]] >> self._index[v] & 1 == 1

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(self.vertices[j] for j in bit_indices(self._bits[self._index[v]]))

    def sorted_edges(self) -> list[tuple[str, str]]:
        """Edges in vertex order of the first endpoint, then of the second."""
        vs = self.vertices
        return [
            (vs[i], vs[j])
            for i, row in enumerate(self._bits)
            for j in bit_indices(row >> i + 1 << i + 1)
        ]


def single_vertex(name: str = "v") -> SimplicialGraph:
    return SimplicialGraph.build([name], [])


def edgeless_graph(names: Iterable[str]) -> SimplicialGraph:
    return SimplicialGraph.build(names, [])


def complete_graph(names: Iterable[str]) -> SimplicialGraph:
    vs = tuple(names)
    return SimplicialGraph.build(vs, itertools.combinations(vs, 2))


def path_graph(names: Iterable[str]) -> SimplicialGraph:
    vs = tuple(names)
    return SimplicialGraph.build(vs, zip(vs, vs[1:]))


def cycle_graph(names: Iterable[str]) -> SimplicialGraph:
    vs = tuple(names)
    if len(vs) < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return SimplicialGraph.build(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def full_subgraph(g: SimplicialGraph, s: Iterable[str]) -> SimplicialGraph:
    """Subgraph induced by ``s``: keeps exactly the edges of g inside s."""
    keep = set(s)
    for v in keep:
        g.index(v)  # raises UnknownVertexError
    vs = tuple(v for v in g.vertices if v in keep)
    es = [e for e in g.edges if e[0] in keep and e[1] in keep]
    return SimplicialGraph.build(vs, es)


def _renamed(g1: SimplicialGraph, g2: SimplicialGraph) -> tuple[str, ...]:
    # Deterministic renaming: prefix every g2 vertex with "g2/" until disjoint.
    taken = set(g1.vertices)
    names = g2.vertices
    while any(name in taken for name in names):
        names = tuple("g2/" + name for name in names)
    return names


def disjoint_union(g1: SimplicialGraph, g2: SimplicialGraph) -> SimplicialGraph:
    shift = g1.n
    return SimplicialGraph(
        g1.vertices + _renamed(g1, g2), g1._bits + tuple(row << shift for row in g2._bits)
    )


def join(g1: SimplicialGraph, g2: SimplicialGraph) -> SimplicialGraph:
    """Disjoint union plus every cross edge."""
    shift = g1.n
    first, second = (1 << shift) - 1, ((1 << g2.n) - 1) << shift
    return SimplicialGraph(
        g1.vertices + _renamed(g1, g2),
        tuple(row | second for row in g1._bits) + tuple(row << shift | first for row in g2._bits),
    )


def bit_indices(mask: int):
    """Positions of the set bits of a non-negative mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _triple_shape(rows, i, j, k) -> tuple[int, int, int, int]:
    """Edge count m of the triple and an ordering (x, y, z) of it.

    With two edges y is the middle vertex of the path x-y-z; with one edge
    the edge is x-y and z touches neither.
    """
    eij, eik, ejk = rows[i] >> j & 1, rows[i] >> k & 1, rows[j] >> k & 1
    m = eij + eik + ejk
    if m == 2:
        if not ejk:
            return 2, j, i, k
        return (2, i, j, k) if not eik else (2, i, k, j)
    if m == 1:
        if eij:
            return 1, i, j, k
        return (1, i, k, j) if eik else (1, j, k, i)
    return m, i, j, k


def _p4_fourths(rows, i, j, k) -> int:
    """Vertices w (as a mask) such that {i, j, k, w} induces a P4."""
    m, x, y, z = _triple_shape(rows, i, j, k)
    if m == 2:  # w extends the path x-y-z at exactly one end
        return (rows[x] ^ rows[z]) & ~rows[y]
    if m == 1:  # w links the edge x-y at one end to the lone z
        return rows[z] & (rows[x] ^ rows[y])
    return 0


def _p3pt_fourths(rows, i, j, k) -> int:
    """Vertices w (as a mask) such that {i, j, k, w} induces a P3 plus a point."""
    m, x, y, z = _triple_shape(rows, i, j, k)
    a, b, c = rows[x], rows[y], rows[z]
    if m == 2:  # w is the lone point
        return ~(a | b | c)
    if m == 1:  # w extends the edge x-y, away from z
        return (a ^ b) & ~c
    if m == 0:  # w is the middle of a path through two of the three
        return (a & b | a & c | b & c) & ~(a & b & c)
    return 0


def _least_quad(rows, mask: int, fourths) -> Optional[tuple[int, int, int, int]]:
    """First i < j < k < l inside `mask`, in combinations order, with l in fourths(i, j, k).

    For each triple every valid fourth vertex comes at once as a mask; its
    lowest bit above k is the least completion of that triple.
    """
    idx = list(bit_indices(mask))
    above = {k: mask & -(2 << k) for k in idx}
    for p, i in enumerate(idx):
        for q in range(p + 1, len(idx)):
            j = idx[q]
            for k in idx[q + 1:]:
                cand = fourths(rows, i, j, k) & above[k]
                if cand:
                    return i, j, k, (cand & -cand).bit_length() - 1
    return None


def find_full_p4(g: SimplicialGraph) -> Optional[tuple[str, str, str, str]]:
    """Lexicographically least induced path on four vertices, or None.

    The result (a, b, c, d) spans edges ab, bc, cd and nothing else; the
    witness comes from the first 4-subset in vertex order that induces a path,
    oriented so the first endpoint precedes the last.  The search runs over
    triples and reads every completing fourth vertex off adjacency bitmasks,
    so it costs O(n^3) mask operations.
    """
    return _least_p4(g, (1 << g.n) - 1)


def _least_p4(g: SimplicialGraph, mask: int) -> Optional[tuple[str, str, str, str]]:
    """find_full_p4 on the subgraph induced by the vertices whose bits are in `mask`."""
    rows = g._bits
    quad = _least_quad(rows, mask, _p4_fourths)
    if quad is None:
        return None
    inside = sum(1 << v for v in quad)
    a, d = (v for v in quad if (rows[v] & inside).bit_count() == 1)
    b = (rows[a] & inside).bit_length() - 1
    c = (rows[d] & inside).bit_length() - 1
    return tuple(g.vertices[v] for v in (a, b, c, d))


def find_full_p3(g: SimplicialGraph) -> Optional[tuple[str, str, str]]:
    """Least induced path on three vertices; None iff g is a union of cliques.

    "Least" means the first 3-subset in vertex order that induces a path.
    For each pair i < j the valid third vertices come at once as a mask:
    those adjacent to exactly one of i, j when i-j is an edge, to both when
    it is not.  Its lowest bit above j is the least completion of the pair.
    """
    rows = g._bits
    for i in range(g.n):
        for j in range(i + 1, g.n):
            third = (rows[i] ^ rows[j] if rows[i] >> j & 1 else rows[i] & rows[j]) >> (j + 1)
            if third:
                _, end1, mid, end2 = _triple_shape(rows, i, j, j + (third & -third).bit_length())
                return g.vertices[end1], g.vertices[mid], g.vertices[end2]
    return None


def find_full_p3_union_pt(g: SimplicialGraph) -> Optional[tuple[str, str, str, str]]:
    """Least 4-tuple (end, mid, end, isolated) inducing a P3 plus a lone vertex.

    "Least" means the first 4-subset in vertex order that induces the
    pattern; the search is the triple-and-mask scan of find_full_p4.
    """
    rows = g._bits
    quad = _least_quad(rows, (1 << g.n) - 1, _p3pt_fourths)
    if quad is None:
        return None
    inside = sum(1 << v for v in quad)
    by_degree = sorted(quad, key=lambda v: ((rows[v] & inside).bit_count(), v))
    iso, end1, end2, mid = by_degree
    return tuple(g.vertices[v] for v in (end1, mid, end2, iso))


# ---------------------------------------------------------------------------
# Text formats: plain edge lists and a small undirected DOT subset.


class _FirstMention(dict):
    """Vertex -> index in first-mention order, plus one adjacency row per vertex.

    Looking a vertex up for the first time numbers it next and gives it an
    empty row; a parser sets each edge's two bits in ``rows`` directly.
    """

    def __init__(self):
        super().__init__()
        self.rows: list[int] = []

    def __missing__(self, v: str) -> int:
        self.rows.append(0)
        i = self[v] = len(self)
        return i

    def graph(self) -> SimplicialGraph:
        return SimplicialGraph(tuple(self), tuple(self.rows))


def parse_edge_list(text: str) -> SimplicialGraph:
    """Parse "u v" edge lines and "vertex u" declarations.

    Blank lines and lines starting with "#" are skipped, so no vertex name
    may start with "#".  Vertices appear in first-mention order.
    """
    return _read_edge_lines(text.splitlines())


def _read_edge_lines(lines: list[str]) -> SimplicialGraph:
    pos = _FirstMention()
    rows = pos.rows
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if len(tokens) == 2:  # an edge, a declaration or a comment
            u, v = tokens
            if u[0] == "#":
                continue
            if v[0] == "#":
                raise GraphParseError(f"vertex name {v!r} starts with '#'", lineno)
            if u == "vertex":
                pos[v]  # numbers the vertex if it is new
            elif u == v:
                raise GraphParseError(f"loop at vertex {u!r}", lineno)
            else:
                i, j = pos[u], pos[v]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        elif not tokens or tokens[0][0] == "#":
            continue
        elif tokens[0] == "vertex":
            raise GraphParseError("expected 'vertex NAME'", lineno)
        else:
            raise GraphParseError(f"cannot parse {raw.strip()!r}", lineno)
    return pos.graph()


def format_edge_list(g: SimplicialGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"{u} {v}" for u, v in g.sorted_edges()]
    return "\n".join(lines) + "\n"


# a DOT token: "--", a brace or ";", or a run of other non-space characters
# that stops before "--"
_DOT_TOKEN = re.compile(r"--|[{};]|(?:(?!--)[^\s{};])+")
# DOT's unquoted ID: a name of letters, digits, "_" and non-ASCII characters
# that does not start with a digit, or a numeral; non-ASCII is a negated
# ASCII class, because a class up to U+10FFFF costs about 6 ms to compile
_DOT_ID = re.compile(r"(?![0-9])(?:[0-9A-Za-z_]|[^\x00-\x7f])+|-?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)")
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_name(v: str) -> str:
    """v itself if it is an unquoted DOT ID and no DOT keyword in any letter case."""
    if not _DOT_ID.fullmatch(v) or v.lower() in _DOT_KEYWORDS:
        raise GraphParseError(f"unexpected token {v!r}")
    return v


def parse_dot(text: str) -> SimplicialGraph:
    """Parse an undirected DOT graph: names, "--" edges, "//" comments.

    Keywords match in any case.  A graph or vertex name is an unquoted DOT
    ID and no keyword; attributes, quoted IDs, subgraphs and anything after
    the closing "}" are refused.
    """
    tokens = _DOT_TOKEN.findall("\n".join(raw.split("//", 1)[0] for raw in text.splitlines()))
    head = [t.lower() for t in tokens[:2]]
    i = 1 if head[:1] == ["strict"] else 0
    if head[i:i + 1] != ["graph"]:
        raise GraphParseError("expected 'graph' keyword")
    i += 1
    if tokens[i:i + 1] not in ([], ["{"]):
        _dot_name(tokens[i])  # optional graph name
        i += 1
    if tokens[i:i + 1] != ["{"]:
        raise GraphParseError("expected '{'")
    i += 1

    pos = _FirstMention()
    rows = pos.rows
    while i < len(tokens) and tokens[i] != "}":
        if tokens[i] == ";":
            i += 1
            continue
        u = tokens[i]
        a = pos[_dot_name(u)]
        i += 1
        while i < len(tokens) and tokens[i] == "--":
            if i + 1 >= len(tokens):
                raise GraphParseError("dangling '--'")
            v = tokens[i + 1]
            b = pos[_dot_name(v)]
            if u == v:
                raise GraphParseError(f"loop at vertex {u!r}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
            u, a = v, b
            i += 2
    if i >= len(tokens):
        raise GraphParseError("missing closing '}'")
    if i + 1 < len(tokens):
        raise GraphParseError(f"unexpected token {tokens[i + 1]!r} after closing '}}'")
    return pos.graph()


def format_dot(g: SimplicialGraph) -> str:
    """The graph in the DOT subset parse_dot reads.

    A vertex whose name is not an unquoted DOT ID, or is a DOT keyword, does
    not read back: parse_dot refuses the file.
    """
    lines = ["graph G {"]
    lines += [f"  {v};" for v in g.vertices]
    lines += [f"  {u} -- {v};" for u, v in g.sorted_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> SimplicialGraph:
    """DOT if the first line parse_edge_list would read starts with graph/strict in any case, else edge list."""
    # parse_edge_list's skip rule on the same lines, which the edge-list
    # reader then reads without splitting the text again
    lines = text.splitlines()
    first = next((t[0] for t in map(str.split, lines) if t and t[0][0] != "#"), "")
    return parse_dot(text) if first.lower() in ("graph", "strict") else _read_edge_lines(lines)
