"""Reference graph loader, written the plain way.

This is the parse -> build -> frozenset -> bitmask path that raagdyn.graphs
replaced: the parsers collect vertices and edge tuples, ``build`` normalizes
the edges into a frozenset of vertex-ordered pairs, and the adjacency rows
are derived from that set in a second pass.  Tests compare the loader that
writes rows directly against it for exact equality, errors included.
"""

from __future__ import annotations

from typing import NamedTuple

from raagdyn.graphs import GraphError, GraphParseError


class RefGraph(NamedTuple):
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    bits: tuple[int, ...]


def build(vertices, edges) -> RefGraph:
    vs = tuple(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    norm = set()
    for u, v in edges:
        if u not in pos or v not in pos:
            raise GraphError(f"edge ({u!r}, {v!r}) mentions unknown vertex")
        if u == v:
            raise GraphError(f"loop at vertex {u!r}")
        norm.add((u, v) if pos[u] < pos[v] else (v, u))
    if len(set(vs)) != len(vs):
        raise GraphError("duplicate vertex identifiers")
    rows = [0] * len(vs)
    for u, v in norm:
        i, j = pos[u], pos[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return RefGraph(vs, frozenset(norm), tuple(rows))


def parse_edge_list(text: str) -> RefGraph:
    order: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def declare(v: str):
        if v not in seen:
            seen.add(v)
            order.append(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphParseError("expected 'vertex NAME'", lineno)
            declare(tokens[1])
        elif len(tokens) == 2:
            u, v = tokens
            if u == v:
                raise GraphParseError(f"loop at vertex {u!r}", lineno)
            declare(u)
            declare(v)
            edges.append((u, v))
        else:
            raise GraphParseError(f"cannot parse {line!r}", lineno)
    return build(order, edges)


def parse_dot(text: str) -> RefGraph:
    stripped = []
    for raw in text.splitlines():
        if "//" in raw:
            raw = raw.split("//", 1)[0]
        stripped.append(raw)
    tokens = (
        "\n".join(stripped)
        .replace("{", " { ")
        .replace("}", " } ")
        .replace(";", " ; ")
        .replace("--", " -- ")
        .split()
    )
    i = 0
    if i < len(tokens) and tokens[i] == "strict":
        i += 1
    if i >= len(tokens) or tokens[i] != "graph":
        raise GraphParseError("expected 'graph' keyword")
    i += 1
    if i < len(tokens) and tokens[i] != "{":
        i += 1
    if i >= len(tokens) or tokens[i] != "{":
        raise GraphParseError("expected '{'")
    i += 1

    order: list[str] = []
    seen: set[str] = set()
    edges: list[tuple[str, str]] = []

    def declare(v: str):
        if v in ("{", "}", ";", "--"):
            raise GraphParseError(f"unexpected token {v!r}")
        if v not in seen:
            seen.add(v)
            order.append(v)

    while i < len(tokens) and tokens[i] != "}":
        if tokens[i] == ";":
            i += 1
            continue
        u = tokens[i]
        declare(u)
        i += 1
        while i < len(tokens) and tokens[i] == "--":
            if i + 1 >= len(tokens):
                raise GraphParseError("dangling '--'")
            v = tokens[i + 1]
            declare(v)
            if u == v:
                raise GraphParseError(f"loop at vertex {u!r}")
            edges.append((u, v))
            u = v
            i += 2
    if i >= len(tokens):
        raise GraphParseError("missing closing '}'")
    return build(order, edges)


def load_graph(text: str) -> RefGraph:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.split()[0] in ("graph", "strict"):
            return parse_dot(text)
        break
    return parse_edge_list(text)
