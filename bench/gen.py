"""Seeded input generators with ground truth carried by construction.

Nothing here imports raagdyn: a change to the program cannot change the
inputs or the expected answers.  Every generator takes an explicit
random.Random, so one seed gives one input stream.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

F = Fraction

# --- criterion-6 words ------------------------------------------------------

AB, T = "ab", "t"
AB_OPTS = tuple((AB, m, n) for m in range(-2, 3) for n in range(-2, 3) if (m, n) != (0, 0))
T_OPTS = tuple((T, r) for r in range(-2, 3) if r)

# criterion 6 enumerates every reduced word of syllable length <= 6 with
# exponents in [-2, 2]; per length, in closed form
C6_COUNTS = {1: 28, 2: 192, 3: 2688, 4: 18432, 5: 258048, 6: 1769472}
C6_TOTAL = 2048860


def c6_count(length: int) -> int:
    """Reduced words of one syllable length, from the option counts alone."""
    na, nt = len(AB_OPTS), len(T_OPTS)
    hi, lo = (length + 1) // 2, length // 2
    return na**hi * nt**lo + nt**hi * na**lo


def c6_pattern(length: int, start: str) -> tuple[str, ...]:
    return tuple(AB if (i % 2 == 0) == (start == AB) else T for i in range(length))


def c6_task_sizes(length: int) -> list[int]:
    """Word counts of criterion 6's tasks of one length (prefix split two deep)."""
    sizes = []
    for start in (AB, T):
        pattern = c6_pattern(length, start)
        depth = 2 if length >= 5 else 1
        n_prefix = 1
        for k in pattern[:depth]:
            n_prefix *= len(AB_OPTS) if k == AB else len(T_OPTS)
        n_tail = 1
        for k in pattern[depth:]:
            n_tail *= len(AB_OPTS) if k == AB else len(T_OPTS)
        sizes += [n_tail] * n_prefix
    return sizes


def c6_slice(rng: Random, length: int, start: str, size: int) -> list[tuple]:
    """`size` consecutive words (syllable tuples) of one seeded criterion-6 task.

    The task prefix and the aligned offset into its enumeration are drawn;
    the words keep the enumeration order the acceptance test uses, so the
    per-run a/b cache sees the same reuse pattern.
    """
    pattern = c6_pattern(length, start)
    prefix = tuple(rng.choice(AB_OPTS if k == AB else T_OPTS) for k in pattern[:2])
    opts = [AB_OPTS if k == AB else T_OPTS for k in pattern[2:]]
    total = 1
    for o in opts:
        total *= len(o)
    offset = rng.randrange(total // size) * size
    tails = itertools.islice(itertools.product(*opts), offset, offset + size)
    return [prefix + tail for tail in tails]


# --- PL maps as breakpoint lists ---------------------------------------------


def increasing(rng: Random, lo: Fraction, hi: Fraction, count: int) -> list[Fraction]:
    """`count` strictly increasing rationals strictly inside (lo, hi)."""
    grid = 4 * (count + 1)
    ks = sorted(rng.sample(range(1, grid), count))
    return [lo + (hi - lo) * F(k, grid) for k in ks]


def interval_points(rng: Random, breaks: int, pin_prob: float = 0.3) -> list:
    """Homeomorphism of [0,1] with `breaks` interior breakpoints, some pinned on y = x."""
    den = 1 << max(5, (4 * breaks).bit_length())
    xs = [F(k, den) for k in sorted(rng.sample(range(1, den), breaks))]
    pts = [(F(0), F(0))]
    pending: list[Fraction] = []

    def flush(ax, ay):
        ys = increasing(rng, pts[-1][1], ay, len(pending))
        pts.extend(zip(pending, ys))
        pts.append((ax, ay))
        pending.clear()

    for x in xs:
        if rng.random() < pin_prob and pts[-1][1] < x:
            flush(x, x)
        else:
            pending.append(x)
    flush(F(1), F(1))
    return pts


def bump_points(rng: Random, lo: Fraction, hi: Fraction, breaks: int = 3) -> list:
    """Map moving every point of (lo, hi) and fixing the rest: supp = (lo, hi) exactly."""
    up = rng.random() < 0.5
    xs = increasing(rng, lo, hi, breaks)
    pts = [(F(0), F(0)), (lo, lo)]
    prev_y = lo
    for i, x in enumerate(xs):
        nxt = xs[i + 1] if i + 1 < len(xs) else hi
        # strictly on one side of the diagonal, and strictly increasing
        y = (x + nxt) / 2 if up else (prev_y + x) / 2
        pts.append((x, y))
        prev_y = y
    pts += [(hi, hi), (F(1), F(1))]
    return pts


def circle_points(rng: Random, breaks: int, grounded: bool) -> list:
    """One period of a lift over [0, 1], F(1) = F(0) + 1, F(0) in [0, 1)."""
    den = 1 << max(5, (4 * breaks).bit_length())
    base = F(0) if grounded else F(rng.randrange(den), den)
    xs = [F(k, den) for k in sorted(rng.sample(range(1, den), breaks))]
    ys = increasing(rng, base, base + 1, breaks)
    return [(F(0), base)] + list(zip(xs, ys)) + [(F(1), base + 1)]


def periodic_circle_points(rng: Random, p: int, q: int) -> list:
    """Circle map cycling q marked points by p steps, linear between them.

    F^q moves every marked point by exactly p and is linear on each gap, so
    F^q(x) = x + p everywhere: the rotation number is p/q by construction.
    """
    den = 4 * q
    zs = [F(0)] + [F(k, den) for k in sorted(rng.sample(range(1, den), q - 1))]

    def z(i):  # lift of the marked points: z(i + q) = z(i) + 1
        k, r = divmod(i, q)
        return zs[r] + k

    pts = [(zs[i], z(i + p)) for i in range(q)] + [(F(1), z(q + p))]
    shift = math.floor(pts[0][1])
    return [(x, y - shift) for x, y in pts]


def certified_pair(rng: Random, bumps: int, extra: bool):
    """(g, u, hull) meeting the lamplighter certificate's conditions.

    g moves exactly (lo, hi) with `bumps` breakpoints inside; u sends lo past
    hi and never moves a point of [lo, 1] leftward, with one more breakpoint
    when `extra` and it fits.  These are the sufficient conditions the
    certificate checks, so it must be issued with hull [lo, hi].
    """
    lo = F(rng.randint(2, 6), 32)
    hi = lo + F(rng.randint(1, 4), 32)
    g = bump_points(rng, lo, hi, bumps)
    v = hi + (1 - hi) * F(rng.randint(2, 7), 8)
    pts = [(F(0), F(0)), (lo, v)]
    m = (lo + 1) / 2
    w = (max(v, m) + 1) / 2
    if extra and v < w < 1 and m > lo:
        pts.append((m, w))
    pts.append((F(1), F(1)))
    return g, pts, (lo, hi)


def disjoint_bumps(rng: Random):
    """Bumps c, d with supp c = (pad, s - pad) and supp d = (s + pad, 1 - pad)."""
    split = F(rng.randint(5, 11), 16)
    pad = F(1, 32)
    c = bump_points(rng, pad, split - pad, rng.randint(1, 3))
    d = bump_points(rng, split + pad, 1 - pad, rng.randint(1, 3))
    return c, d


# --- graphs ------------------------------------------------------------------


class Graph:
    """Vertex names in file order plus an adjacency-set map."""

    def __init__(self, names):
        self.names = list(names)
        self.adj = {v: set() for v in self.names}

    def add(self, u, v):
        self.adj[u].add(v)
        self.adj[v].add(u)

    def edge_list(self, rng: Random) -> str:
        """Edge-list text: vertex lines in order, then edges in seeded order."""
        pos = {v: i for i, v in enumerate(self.names)}
        edges = [
            (u, v) for u in self.names
            for v in sorted(self.adj[u], key=pos.__getitem__) if pos[u] < pos[v]
        ]
        rng.shuffle(edges)
        lines = [f"vertex {v}" for v in self.names]
        lines += [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
        return "\n".join(lines) + "\n"


def names(rng: Random, n: int, tag: str) -> list[str]:
    return [f"{tag}{i}_{rng.randrange(1000)}" for i in range(n)]


def cograph(rng: Random, n: int, depth: int, tag: str = "v"):
    """Random cograph from a construction tree at most `depth` nodes deep.

    Returns (graph, nested tree, level).  Internal nodes alternate join and
    union and have >= 2 children, so the tree is already flattened: it is the
    canonical cotree, and the level read off it is the graph's level.
    """
    vs = names(rng, n, tag)
    leaves = vs[:]
    rng.shuffle(leaves)
    root_kind = rng.choice(("join", "union"))
    root = [root_kind]
    todo = [(root, leaves, 1)]
    while todo:
        node, pool, d = todo.pop()
        if d >= depth or len(pool) <= 2:
            parts = [[v] for v in pool]
        else:
            k = rng.randint(2, min(4, len(pool)))
            cuts = sorted(rng.sample(range(1, len(pool)), k - 1))
            parts = [pool[a:b] for a, b in zip([0] + cuts, cuts + [len(pool)])]
        other = "union" if node[0] == "join" else "join"
        for part in parts:
            if len(part) == 1:
                node.append(["leaf", part[0]])
            else:
                child = [other]
                node.append(child)
                todo.append((child, part, d + 1))
    g = Graph(vs)
    stack = [root]
    while stack:
        node = stack.pop()
        if node[0] == "leaf":
            continue
        if node[0] == "join":
            groups = [_leaves(c) for c in node[1:]]
            for a, b in itertools.combinations(range(len(groups)), 2):
                for u in groups[a]:
                    for v in groups[b]:
                        g.add(u, v)
        stack.extend(node[1:])
    return g, root, level_of(root)


def _next_level(kind: str, m: int) -> int:
    if kind == "join":
        return m + 1 if m % 2 == 0 else m + 2
    return m + 1 if m % 2 == 1 else m + 2


def threshold(rng: Random, n: int, tag: str = "t"):
    """Alternating threshold graph: vertex i dominates all earlier ones when i is odd.

    Its cotree is a chain of n - 1 alternating nodes; returns (graph, level, depth).
    """
    vs = names(rng, n, tag)
    g = Graph(vs)
    kinds = []
    for i in range(1, n):
        if i % 2:
            for j in range(i):
                g.add(vs[j], vs[i])
            kinds.append("join")
        else:
            kinds.append("union")
    level = 0
    for kind in kinds:
        level = _next_level(kind, level)
    return g, level, n - 1


def p4_cliques(rng: Random, m: int, tag: str = "q"):
    """P4 with every vertex replaced by a clique K_m, blocks in path order."""
    vs = names(rng, 4 * m, tag)
    g = Graph(vs)
    blocks = [vs[k * m:(k + 1) * m] for k in range(4)]
    for b in blocks:
        for u, v in itertools.combinations(b, 2):
            g.add(u, v)
    for a, b in ((0, 1), (1, 2), (2, 3)):
        for u in blocks[a]:
            for v in blocks[b]:
                g.add(u, v)
    return g


def gnp(rng: Random, n: int, tag: str = "r"):
    g = Graph(names(rng, n, tag))
    for u, v in itertools.combinations(g.names, 2):
        if rng.random() < 0.5:
            g.add(u, v)
    return g


def is_induced_p4(g: Graph, quad) -> bool:
    """a-b-c-d is an induced path: six adjacency lookups."""
    a, b, c, d = quad
    adj = g.adj
    return (
        b in adj[a] and c in adj[b] and d in adj[c]
        and c not in adj[a] and d not in adj[b] and d not in adj[a]
    )


def is_induced_p3_plus_point(g: Graph, quad) -> bool:
    """(end, mid, end, isolated) induces a P3 plus a lone vertex: six lookups."""
    e1, m, e2, iso = quad
    adj = g.adj
    return (
        m in adj[e1] and e2 in adj[m] and e2 not in adj[e1]
        and iso not in adj[e1] and iso not in adj[m] and iso not in adj[e2]
    )


def cotree_matches(g: Graph, nested) -> bool:
    """A claimed cotree encodes g: u ~ v iff their lowest common node is a join."""
    pairs_ok = True
    stack = [(nested, None)]
    seen = []
    while stack:
        node, _ = stack.pop()
        if node[0] == "leaf":
            seen.append(node[1])
            continue
        groups = [_leaves(c) for c in node[1:]]
        for a, b in itertools.combinations(range(len(groups)), 2):
            for u in groups[a]:
                for v in groups[b]:
                    if (v in g.adj[u]) != (node[0] == "join"):
                        pairs_ok = False
        stack.extend((c, None) for c in node[1:])
    return pairs_ok and sorted(seen) == sorted(g.names)


def _leaves(nested) -> list[str]:
    out, stack = [], [nested]
    while stack:
        node = stack.pop()
        if node[0] == "leaf":
            out.append(node[1])
        else:
            stack.extend(node[1:])
    return out


def cotree_depth(nested) -> int:
    depth, stack = 0, [(nested, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        if node[0] != "leaf":
            stack.extend((c, d + 1) for c in node[1:])
    return depth


def level_of(nested) -> int:
    """Hierarchy level of a nested cotree, computed bottom-up without recursion."""
    order, stack = [], [nested]
    while stack:
        node = stack.pop()
        order.append(node)
        if node[0] != "leaf":
            stack.extend(node[1:])
    level = {}
    for node in reversed(order):
        if node[0] == "leaf":
            level[id(node)] = 0
        else:
            level[id(node)] = _next_level(node[0], max(level[id(c)] for c in node[1:]))
    return level[id(nested)]


def verdict_for_level(level):
    """Expected verdict fields; level None means not a cograph."""
    if level is None:
        return {"c1": True, "c1bv": False, "c_infinity": False, "c_omega": False,
                "circle_class": "NoFaithfulC1bv"}
    smooth, analytic = level <= 3, level <= 2
    circle = ("UncountableProjective" if analytic
              else "CountableWithFiniteOrbit" if level == 3 else "NoFaithfulC1bv")
    return {"c1": True, "c1bv": smooth, "c_infinity": smooth, "c_omega": analytic,
            "circle_class": circle}
