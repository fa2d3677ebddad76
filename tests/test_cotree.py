import itertools
import time
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cograph_ref as ref
from graph_enum import all_classes_up_to, as_simplicial
from kn_oracle import KnOracle
import raagdyn.cotree
from raagdyn.cotree import (
    JOIN,
    LEAF,
    UNION,
    Cotree,
    EmptyGraphError,
    NotApplicableError,
    NotCograph,
    classify,
    decompose,
    hierarchy_level,
    reconstruct,
    witness,
)
from raagdyn.graphs import (
    SimplicialGraph,
    complete_graph,
    disjoint_union,
    edgeless_graph,
    find_full_p3_union_pt,
    find_full_p4,
    full_subgraph,
    path_graph,
    single_vertex,
)
from raagdyn.raag import letters_commute, parse_letters
from raagdyn.serialize import dumps_doc

P3 = path_graph("123")
P4 = path_graph("1234")
P3PT = disjoint_union(P3, single_vertex("4"))


def leaf(v):
    return Cotree("leaf", vertex=v)


class TestDecompose:
    def test_triangle(self):
        t = decompose(complete_graph("123"))
        assert t == Cotree("join", children=(leaf("1"), leaf("2"), leaf("3")))

    def test_p4_is_not_cograph(self):
        assert decompose(P4) == NotCograph(("1", "2", "3", "4"))

    def test_p3_plus_point_structure(self):
        t = decompose(P3PT)
        inner = Cotree("join", children=(
            Cotree("union", children=(leaf("1"), leaf("3"))),
            leaf("2"),
        ))
        assert t == Cotree("union", children=(inner, leaf("4")))

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            decompose(edgeless_graph([]))

    def test_failure_agrees_with_p4_search(self):
        rng = Random(17)
        for _ in range(200):
            n = rng.randint(1, 7)
            vs = [str(i) for i in range(n)]
            es = [
                (u, v)
                for i, u in enumerate(vs)
                for v in vs[i + 1 :]
                if rng.random() < rng.choice((0.25, 0.5, 0.75))
            ]
            g = SimplicialGraph.build(vs, es)
            res = decompose(g)
            assert isinstance(res, NotCograph) == (find_full_p4(g) is not None)
            if isinstance(res, NotCograph):
                a, b, c, d = res.p4
                sub = full_subgraph(g, {a, b, c, d})
                assert find_full_p4(sub) is not None


class TestReconstruct:
    def test_leaf(self):
        assert reconstruct(leaf("v")) == single_vertex("v")

    @pytest.mark.parametrize("kind, vertex, children, message", [
        (LEAF, "x", (leaf("y"),), "leaf must carry a vertex and no children"),
        (JOIN, None, (leaf("x"),), "join node needs >= 2 children"),
        (JOIN, None, (leaf("x"), Cotree(JOIN, children=(leaf("y"), leaf("z")))), "join node has a child of the same kind"),
        ("intersection", None, (leaf("x"), leaf("y")), "unknown node kind 'intersection'"),
    ], ids=["leaf-with-children", "join-one-child", "join-under-join", "unknown-kind"])
    def test_malformed_node_rejected(self, kind, vertex, children, message):
        with pytest.raises(ValueError) as e:
            Cotree(kind, vertex=vertex, children=children)
        assert str(e.value) == message

    def test_join_of_leaves(self):
        g = reconstruct(Cotree("join", children=(leaf("x"), leaf("y"))))
        assert g.edges == frozenset({("x", "y")})

    def test_union_of_edge_and_point(self):
        t = Cotree("union", children=(
            Cotree("join", children=(leaf("x"), leaf("y"))),
            leaf("z"),
        ))
        g = reconstruct(t)
        assert g.edges == frozenset({("x", "y")}) and g.n == 3

    def test_roundtrip_on_all_small_cographs(self):
        for n, edges in all_classes_up_to(6):
            g = as_simplicial(n, edges)
            t = decompose(g)
            if isinstance(t, NotCograph):
                continue
            back = reconstruct(t)
            assert set(back.vertices) == set(g.vertices)
            assert back.edges == g.edges
            assert sorted(t.leaves()) == sorted(g.vertices)

    def test_nested_roundtrip(self):
        t = decompose(P3PT)
        assert Cotree.from_nested(t.to_nested()) == t


class TestHierarchyLevel:
    def test_leaf_is_zero(self):
        assert hierarchy_level(leaf("v")) == 0

    def test_edge_is_one(self):
        assert hierarchy_level(decompose(path_graph("12"))) == 1

    def test_p3_plus_point_is_four(self):
        assert hierarchy_level(decompose(P3PT)) == 4

    def test_matches_oracle_up_to_five(self):
        for n, edges in all_classes_up_to(5):
            g = as_simplicial(n, edges)
            res = decompose(g)
            lvl = None if isinstance(res, NotCograph) else hierarchy_level(res)
            assert lvl == KnOracle(g).min_level()

    def test_hereditary_on_small_cographs(self):
        for n, edges in all_classes_up_to(6):
            g = as_simplicial(n, edges)
            res = decompose(g)
            if isinstance(res, NotCograph):
                continue
            lvl = hierarchy_level(res)
            for mask in range(1, 2 ** n):
                s = {str(i) for i in range(n) if mask >> i & 1}
                sub = decompose(full_subgraph(g, s))
                assert not isinstance(sub, NotCograph)
                assert hierarchy_level(sub) <= lvl


class TestClassify:
    def test_p4_verdict(self):
        v = classify(P4).verdict
        assert (v.c1, v.c1bv, v.c_infinity, v.c_omega) == (True, False, False, False)
        assert v.circle_class == "NoFaithfulC1bv"

    def test_k5_verdict(self):
        cls = classify(complete_graph("12345"))
        assert cls.level == 1
        v = cls.verdict
        assert v.c_omega and v.circle_class == "UncountableProjective"

    def test_p3_verdict(self):
        cls = classify(P3)
        assert cls.level == 3
        v = cls.verdict
        assert (v.c1, v.c1bv, v.c_infinity, v.c_omega) == (True, True, True, False)
        assert v.circle_class == "CountableWithFiniteOrbit"

    def test_single_vertex(self):
        cls = classify(single_vertex())
        assert cls.level == 0 and cls.verdict.c_omega

    def test_empty(self):
        with pytest.raises(EmptyGraphError):
            classify(edgeless_graph([]))


class TestWitness:
    def test_p4_words(self):
        w = witness(P4)
        assert w.kind == "p4-conjugate"
        assert w.words == ("1", "2", "3", "4 1 4^-1")

    def test_p3_plus_point_vertices(self):
        w = witness(P3PT)
        assert w.kind == "p3-plus-point"
        assert w.vertices == ("1", "2", "3", "4")
        assert w.words == w.vertices

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            witness(complete_graph("123"))

    def test_commutation_pattern(self):
        # the four words must commute exactly like the generators of
        # (F2 x Z) * Z on its defining graph: pairs (0,1) and (1,2) only
        for g in (P4, P3PT, disjoint_union(path_graph("wxyz"), P3)):
            w = witness(g)
            words = [parse_letters(s) for s in w.words]
            for i in range(4):
                for j in range(i + 1, 4):
                    expected = (i, j) in {(0, 1), (1, 2)}
                    assert letters_commute(g, words[i], words[j]) == expected


def assert_matches_reference(g):
    assert decompose(g) == ref.decompose(g)
    assert find_full_p4(g) == ref.find_full_p4(g)
    assert find_full_p3_union_pt(g) == ref.find_full_p3_union_pt(g)


@st.composite
def reordered_graphs(draw, max_n=10):
    """Graphs on v0..v{n-1} whose vertex order is not the sorted order."""
    n = draw(st.integers(1, max_n))
    names = [f"v{i}" for i in range(n)]
    order = draw(st.permutations(names))
    assume(n == 1 or order != sorted(order))
    pairs = list(itertools.combinations(names, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimplicialGraph.build(order, [p for p, k in zip(pairs, keep) if k])


class TestAgainstReference:
    """The bitmask split and mask-driven scans give the reference's exact output."""

    def test_enumeration_with_shuffled_orders(self):
        rng = Random(4)
        for n, edges in all_classes_up_to(7):
            g = as_simplicial(n, edges)
            for _ in range(2):
                order = list(g.vertices)
                rng.shuffle(order)
                assert_matches_reference(SimplicialGraph.build(order, g.edges))

    @settings(max_examples=400, deadline=None)
    @given(reordered_graphs())
    def test_reordered_graphs(self, g):
        assert_matches_reference(g)


class TestCotreeDunders:
    """Equality, hash and repr match a plain frozen dataclass, at any depth."""

    def small_trees(self):
        trees = [leaf("x")]
        for n, edges in all_classes_up_to(5):
            t = decompose(as_simplicial(n, edges))
            if isinstance(t, Cotree):
                trees.append(t)
        return trees

    def test_match_generated_methods_on_small_trees(self):
        trees = self.small_trees()
        plains = [ref.plain(t) for t in trees]
        for t, p in zip(trees, plains):
            assert repr(t) == repr(p)
            assert hash(t) == hash(p) == hash((t.kind, t.vertex, t.children))
        for (s, ps), (t, pt) in itertools.product(zip(trees, plains), repeat=2):
            assert (s == t) == (ps == pt)
            assert (s != t) == (ps != pt)
        twin = Cotree.from_nested(trees[-1].to_nested())
        assert twin == trees[-1] and twin is not trees[-1]
        assert Cotree(LEAF, vertex="x") != ref.PlainCotree(LEAF, vertex="x")

    def test_deep_trees(self):
        t = decompose(ref.threshold_graph(1200))
        twin = Cotree.from_nested(t.to_nested())
        nested = t.to_nested()
        node = nested
        while node[0] != LEAF:
            node = node[1]
        node[1] = "renamed"
        other = Cotree.from_nested(nested)
        assert t == twin and not t != twin and hash(t) == hash(twin)
        assert t != other and not t == other
        text = repr(t)
        assert text.startswith("Cotree(kind='join', vertex=None, children=(Cotree(kind='union'")
        assert text.count("Cotree(") == 2 * 1200 - 1 and text == repr(twin)
        assert repr(other) == text.replace("vertex='t0'", "vertex='renamed'")


class TestOneDecomposition:
    """classify keeps its result on the graph, so witness does not decompose again."""

    def test_classify_then_witness(self, monkeypatch):
        calls = []
        real = raagdyn.cotree.decompose
        monkeypatch.setattr(raagdyn.cotree, "decompose", lambda g: calls.append(g) or real(g))
        for g in (path_graph("1234"), ref.threshold_graph(12), disjoint_union(path_graph("123"), single_vertex("4"))):
            cls = classify(g)
            w = witness(g)
            assert classify(g) is cls
            assert calls == [g]
            assert w.kind in ("p4-conjugate", "p3-plus-point")
            calls.clear()


class TestDeepCographs:
    """Cotree depth is not bounded by the interpreter's recursion limit."""

    def test_thousand_deep_cotree_roundtrip(self):
        t = leaf("t0")
        for i in range(1, 1001):
            t = Cotree(JOIN if i % 2 else UNION, children=(t, leaf(f"t{i}")))
        back = Cotree.from_nested(t.to_nested())
        g = reconstruct(back)
        again = decompose(g)
        h = reconstruct(again)
        assert h.vertices == g.vertices and h.edges == g.edges
        assert g.edges == ref.threshold_graph(1001).edges
        assert again.leaves() == list(g.vertices)
        assert hierarchy_level(again) == 1000
        assert dumps_doc({"t": again.to_nested()}) == dumps_doc({"t": t.to_nested()})

    def test_threshold_400(self):
        g = ref.threshold_graph(400)
        cls = classify(g)
        assert cls.cograph and cls.level == 399 and not cls.verdict.c1bv
        w = witness(g)
        assert w.kind == "p3-plus-point" and ref.is_p3_plus_point(g, w.vertices)

    def test_threshold_1000_under_5s(self):
        g = ref.threshold_graph(1000)
        t0 = time.monotonic()
        cls = classify(g)
        w = witness(g)
        assert time.monotonic() - t0 < 5.0
        assert cls.level == 999 and ref.is_p3_plus_point(g, w.vertices)

    def test_p4_substituted_cliques_under_1s(self):
        m = 60
        blocks = [[f"q{k}_{i}" for i in range(m)] for k in range(4)]
        edges = [e for b in blocks for e in itertools.combinations(b, 2)]
        edges += [(u, v) for a, b in zip(blocks, blocks[1:]) for u in a for v in b]
        g = SimplicialGraph.build([v for b in blocks for v in b], edges)
        t0 = time.monotonic()
        cls = classify(g)
        assert time.monotonic() - t0 < 1.0
        assert cls.p4_witness == tuple(b[0] for b in blocks)
