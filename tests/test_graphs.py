import itertools
from random import Random

import pytest

from raagdyn.graphs import (
    GraphError,
    GraphParseError,
    SimplicialGraph,
    UnknownVertexError,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    find_full_p3,
    find_full_p3_union_pt,
    find_full_p4,
    format_dot,
    format_edge_list,
    full_subgraph,
    join,
    load_graph,
    parse_dot,
    parse_edge_list,
    path_graph,
    single_vertex,
)

P4 = path_graph("1234")
C5 = cycle_graph("12345")


def brute_force_has_p4(g):
    """Independent check: some ordering of some 4-subset is an induced path."""
    for quad in itertools.combinations(g.vertices, 4):
        inside = {
            frozenset(e)
            for e in g.edges
            if e[0] in quad and e[1] in quad
        }
        for perm in itertools.permutations(quad):
            want = {frozenset(p) for p in zip(perm, perm[1:])}
            if inside == want:
                return True
    return False


def brute_force_has_p3(g):
    for trip in itertools.combinations(g.vertices, 3):
        inside = {
            frozenset(e) for e in g.edges if e[0] in trip and e[1] in trip
        }
        for perm in itertools.permutations(trip):
            want = {frozenset(p) for p in zip(perm, perm[1:])}
            if inside == want:
                return True
    return False


def random_graph(rng, n):
    vs = [str(i) for i in range(n)]
    es = [e for e in itertools.combinations(vs, 2) if rng.random() < rng.choice((0.2, 0.5, 0.8))]
    return SimplicialGraph.build(vs, es)


class TestConstruction:
    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            SimplicialGraph.build("ab", [("a", "a")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            SimplicialGraph.build("ab", [("a", "c")])

    def test_duplicate_edges_collapse(self):
        g = SimplicialGraph.build("ab", [("a", "b"), ("b", "a")])
        assert len(g.edges) == 1


class TestAdjacency:
    def test_adjacent_and_neighbors_agree_with_edges(self):
        rng = Random(8)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9))
            order = list(g.vertices)
            rng.shuffle(order)
            g = SimplicialGraph.build(order, g.edges)
            for u in g.vertices:
                want = {v for e in g.edges if u in e for v in e if v != u}
                assert g.neighbors(u) == want
                for v in g.vertices:
                    assert g.adjacent(u, v) == (v in want)


class TestFullSubgraph:
    def test_path_restriction_is_edge(self):
        g = full_subgraph(P4, {"1", "2"})
        assert g.vertices == ("1", "2") and g.edges == frozenset({("1", "2")})

    def test_c5_restriction_is_p4(self):
        g = full_subgraph(C5, {"1", "2", "3", "4"})
        assert g.edges == frozenset({("1", "2"), ("2", "3"), ("3", "4")})
        assert find_full_p4(g) == ("1", "2", "3", "4")

    def test_empty_subset(self):
        g = full_subgraph(P4, set())
        assert g.n == 0 and not g.edges

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            full_subgraph(P4, {"9"})

    def test_idempotent(self):
        rng = Random(5)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 7))
            s = {v for v in g.vertices if rng.random() < 0.6}
            once = full_subgraph(g, s)
            assert full_subgraph(once, s) == once


class TestJoinUnion:
    def test_join_points_is_edge(self):
        g = join(single_vertex("x"), single_vertex("y"))
        assert g.edges == frozenset({("x", "y")})

    def test_union_points(self):
        g = disjoint_union(single_vertex("x"), single_vertex("y"))
        assert g.n == 2 and not g.edges

    def test_join_point_with_two_points_is_p3(self):
        g = join(single_vertex("m"), edgeless_graph(["u", "w"]))
        assert sorted(g.edges) == [("m", "u"), ("m", "w")]
        assert find_full_p3(g) is not None

    def test_edge_count_formula(self):
        rng = Random(11)
        for _ in range(30):
            g1 = random_graph(rng, rng.randint(1, 5))
            g2 = random_graph(rng, rng.randint(1, 5))
            j = join(g1, g2)
            assert len(j.edges) == len(g1.edges) + len(g2.edges) + g1.n * g2.n
            u = disjoint_union(g1, g2)
            assert len(u.edges) == len(g1.edges) + len(g2.edges)

    def test_collision_renaming(self):
        g1 = path_graph("ab")
        g2 = path_graph("bc")
        u = disjoint_union(g1, g2)
        assert u.vertices == ("a", "b", "g2/b", "g2/c")
        assert ("g2/b", "g2/c") in u.edges
        # cascading collision against an existing g2/ name
        g3 = SimplicialGraph.build(("a", "g2/a"), [])
        v = disjoint_union(g3, single_vertex("a"))
        assert v.vertices == ("a", "g2/a", "g2/g2/a")


class TestPatternSearch:
    def test_p4_on_itself(self):
        assert find_full_p4(P4) == ("1", "2", "3", "4")

    def test_complete_graph_has_none(self):
        assert find_full_p4(complete_graph("1234")) is None

    def test_c5_witness(self):
        assert find_full_p4(C5) == ("1", "2", "3", "4")

    def test_witness_is_least_and_valid(self):
        rng = Random(99)
        for _ in range(150):
            g = random_graph(rng, rng.randint(4, 7))
            w = find_full_p4(g)
            assert (w is not None) == brute_force_has_p4(g)
            if w is not None:
                a, b, c, d = w
                inside = {
                    frozenset(e) for e in g.edges if set(e) <= {a, b, c, d}
                }
                assert inside == {
                    frozenset((a, b)),
                    frozenset((b, c)),
                    frozenset((c, d)),
                }
                assert g.index(a) < g.index(d)

    def test_p3_examples(self):
        assert find_full_p3(path_graph("123")) == ("1", "2", "3")
        assert find_full_p3(complete_graph("123")) is None
        assert find_full_p3(P4) == ("1", "2", "3")

    def test_p3_absent_iff_union_of_cliques(self):
        rng = Random(31)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 6))
            assert (find_full_p3(g) is None) == (not brute_force_has_p3(g))

    def test_p3_union_pt(self):
        g = disjoint_union(path_graph("123"), single_vertex("4"))
        assert find_full_p3_union_pt(g) == ("1", "2", "3", "4")
        assert find_full_p3_union_pt(complete_graph("1234")) is None

    def test_brute_force_agreement_up_to_nine_vertices(self):
        rng = Random(271)
        for _ in range(25):
            g = random_graph(rng, rng.randint(8, 9))
            assert (find_full_p4(g) is not None) == brute_force_has_p4(g)


class TestFormats:
    def test_edge_list_roundtrip(self):
        text = "vertex z\n1 2\n2 3\n"
        g = parse_edge_list(text)
        assert g.vertices == ("z", "1", "2", "3")
        again = parse_edge_list(format_edge_list(g))
        assert again == g

    def test_edge_list_errors_carry_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("1 2\nbogus line here\n")
        assert err.value.line == 2
        with pytest.raises(GraphParseError):
            parse_edge_list("1 1\n")

    def test_dot_roundtrip(self):
        text = "graph G {\n  a;\n  a -- b;\n  b -- c;\n}\n"
        g = parse_dot(text)
        assert g.vertices == ("a", "b", "c")
        assert parse_dot(format_dot(g)) == g

    def test_dot_chained_edges(self):
        g = parse_dot("graph { a -- b -- c; d; }")
        assert ("a", "b") in g.edges and ("b", "c") in g.edges
        assert "d" in g.vertices

    def test_load_graph_sniffs(self):
        assert load_graph("graph { a -- b; }").n == 2
        assert load_graph("# comment\n1 2\n").n == 2

    def test_dot_missing_brace(self):
        with pytest.raises(GraphParseError):
            parse_dot("graph { a -- b; ")
