import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cograph_ref as ref
import loader_ref
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
        with pytest.raises(GraphError, match="^loop at vertex 'a'$"):
            SimplicialGraph.build("ab", [("a", "a")])

    def test_build_names_unknown_vertex_before_loop(self):
        """Loops are refused by the row check after every edge is placed."""
        with pytest.raises(GraphError, match="mentions unknown vertex"):
            SimplicialGraph.build("ab", [("a", "a"), ("a", "z")])
        with pytest.raises(GraphError, match="^loop at vertex 'a'$"):
            SimplicialGraph.build("ab", [("b", "b"), ("a", "a")])

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(GraphError, match="at least 3 vertices"):
            cycle_graph("ab")

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

    def test_p3_matches_reference_on_shuffled_graphs(self):
        rng = Random(53)
        for _ in range(2000):
            g = random_graph(rng, rng.randint(0, 9))
            order = list(g.vertices)
            rng.shuffle(order)
            g = SimplicialGraph.build(order, g.edges)
            assert find_full_p3(g) == ref.find_full_p3(g)

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
        assert load_graph("STRICT Graph { a -- b; }").n == 2

    def test_hash_names_refused_so_edge_lists_read_back(self):
        for text, line in [("vertex #x\n", 1), ("vertex a\na #x\n", 2)]:
            with pytest.raises(GraphParseError, match="vertex name '#x' starts with '#'") as err:
                parse_edge_list(text)
            assert err.value.line == line
        g = parse_edge_list("vertex x#\na x#\n")
        assert parse_edge_list(format_edge_list(g)) == g

    def test_dot_missing_brace(self):
        with pytest.raises(GraphParseError):
            parse_dot("graph { a -- b; ")


NAMES = ("a", "b", "c", "d", "x1", "vertex", "graph")


def edge_list_lines():
    name = st.sampled_from(NAMES)
    pad = st.sampled_from(("", " ", "\t", "  "))
    return st.one_of(
        st.tuples(pad, name, pad, name, pad).map(lambda t: f"{t[0]}{t[1]} {t[2]}{t[3]}{t[4]}"),
        name.map(lambda v: f"vertex {v}"),
        st.sampled_from(("", "   ", "# a comment", "  # b c", "#vertex q")),
    )


malformed_lines = st.sampled_from(("a", "a b c", "vertex", "vertex a b", "a a", "\tb  b"))


@st.composite
def edge_list_texts(draw, malformed=False):
    lines = draw(st.lists(edge_list_lines(), max_size=30))
    if malformed:
        lines.insert(draw(st.integers(0, len(lines))), draw(malformed_lines))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@st.composite
def dot_texts(draw, malformed=False):
    name = st.sampled_from(NAMES[:-2])
    stmt = st.one_of(
        name.map(lambda v: f"{v};"),
        st.lists(name, min_size=2, max_size=4).map(" -- ".join),
        st.lists(name, min_size=2, max_size=3).map(lambda vs: "--".join(vs) + ";"),
        st.sampled_from((";", "// a -- b", "a -- b; // c -- d")),
    )
    body = draw(st.lists(stmt, max_size=20))
    if malformed:
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(("a --", "b -- b", "{", "-- c", "}"))))
    head = draw(st.sampled_from(("graph {", "graph G {", "strict graph g {", "# note\ngraph{")))
    tail = draw(st.sampled_from(("}", "}\n", "} // end")))
    sep = draw(st.sampled_from(("\n", " ", "\n  ")))
    return sep.join([head, *body, tail])


def assert_loads_like_reference(text):
    """Same graph as the old set-of-edge-tuples loader, or the same error."""
    try:
        want = loader_ref.load_graph(text)
    except GraphError as e:
        with pytest.raises(GraphError) as err:
            load_graph(text)
        assert type(err.value) is type(e)
        assert str(err.value) == str(e)
        assert getattr(err.value, "line", None) == getattr(e, "line", None)
        return
    g = load_graph(text)
    assert g.vertices == want.vertices
    assert g.edges == want.edges
    assert g._bits == want.bits
    built = SimplicialGraph.build(want.vertices, want.edges)
    assert g == built and hash(g) == hash(built)
    again = load_graph(text)
    assert g == again and hash(g) == hash(again)
    if g.n >= 2:
        flipped = SimplicialGraph.build(g.vertices, want.edges ^ {g.vertices[:2]})
        assert g != flipped


class TestLoaderAgainstReference:
    """Rows written while parsing equal the old parse -> frozenset -> rows path."""

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts())
    def test_edge_lists(self, text):
        assert_loads_like_reference(text)

    @settings(max_examples=300, deadline=None)
    @given(dot_texts())
    def test_dot(self, text):
        assert_loads_like_reference(text)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(edge_list_texts(malformed=True), dot_texts(malformed=True)))
    def test_malformed_texts(self, text):
        assert_loads_like_reference(text)

    @pytest.mark.parametrize("text", [
        "a a\n",
        "1 2\nbogus line here\n",
        "ok 1\n\t a b c  \n",
        "# c\n\nvertex\n",
        "vertex a b\n",
        "a b\n\n  c   c\n",
        "",
        "graph",
        "strict\n",
        "digraph { a -- b }",
        "graph G a { }",
        "graph { a -- b; ",
        "graph { a -- }",
        "graph { a -- a; }",
        "graph { a -- b -- a -- a }",
        "graph { a -- ",
        "graph { { }",
        "graph { ; -- b }",
        "graph { a b -- c ; } trailing",
        "graph { rankdir=LR; a -- b -- c -- d -- a }",
        "graph { node [shape=circle]; a -- b }",
        "graph { a -- b [color=red] }",
        'graph { "a" -- b }',
        "graph { a -- b } c -- d",
        "graph { a -- b }\ngraph { e }",
        "graph { x1 -- _y -- 3.5 -- -.5 -- 7. -- \u00e9t\u00e9 }",
        "graph { 1a -- b }",
        "graph { Edge -- b }",
        "graph { a -- - }",
        "# x\na b\n",
        "a b\nvertex\n",
        "vertex a b c\n",
        "a vertex\nvertex vertex\n",
        "a b\nb a\na b\n",
        "a b\nvertex c\nvertex b\nc a\n",
        "vertex #x\n",
        "vertex a\na #x\n",
        "#x a\n",
        "a # comment\n",
        "Graph x\n",
        "GRAPH { a -- b }",
        "Strict Graph G { a -- b }",
        "strict digraph { a -- b }",
        "graph [x=1] { a -- b }",
        "graph node { a -- b }",
        "graph Node { a -- b }",
        "graph 1a { a -- b }",
        "graph ; { a -- b }",
        "graph } { a -- b }",
    ])
    def test_fixed_inputs(self, text):
        assert_loads_like_reference(text)


class TestRows:
    def test_rows_are_checked(self):
        assert SimplicialGraph(("a", "b"), (0b10, 0b01)).edges == frozenset({("a", "b")})
        for vertices, rows in [
            (("a", "a"), (0, 0)),  # duplicate vertex
            (("a", "b"), (0b01, 0)),  # diagonal bit
            (("a", "b"), (0b100, 0)),  # bit beyond the last vertex
            (("a", "b"), (-1, 0)),
            (("a", "b"), (0,)),  # a row missing
        ]:
            with pytest.raises(GraphError):
                SimplicialGraph(vertices, rows)

    def test_sorted_edges_in_vertex_order(self):
        g = SimplicialGraph.build("dcba", [("a", "b"), ("a", "d"), ("c", "b"), ("d", "c")])
        assert g.sorted_edges() == [("d", "c"), ("d", "a"), ("c", "b"), ("b", "a")]
        assert g.edges == frozenset(g.sorted_edges())
