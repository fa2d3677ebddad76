import hashlib
import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_enum import all_classes_up_to, as_simplicial
from raagdyn.actions import build_faithful_on, build_separating_action
from raagdyn.cotree import classify, witness
from raagdyn.graphs import disjoint_union, path_graph, single_vertex
from raagdyn.randmaps import random_circle_map, random_interval_map
from raagdyn.serialize import (
    assignment_to_obj,
    classification_to_obj,
    dumps_doc,
    faithful_to_obj,
    frac_to_str,
    map_to_obj,
    obj_to_assignment,
    obj_to_graph,
    obj_to_map,
    graph_to_obj,
    PayloadError,
    str_to_frac,
)

F = Fraction


def test_fraction_strings():
    assert frac_to_str(F(1, 3)) == "1/3"
    assert frac_to_str(F(2)) == "2"
    assert str_to_frac("7/4") == F(7, 4)
    assert str_to_frac("0") == 0
    assert str_to_frac("0.5") == F(1, 2)
    assert str_to_frac("3") == 3
    assert str_to_frac("-1/2") == F(-1, 2)
    assert str_to_frac("3.") == 3
    assert str_to_frac(".5") == F(1, 2)
    assert str_to_frac("+1/2") == F(1, 2)


@pytest.mark.parametrize("value", [0.5, True, 3, None, "1e2", "1E2", "2.5e-3", "1e4000000",
                                   "\u0663", "1_000", " 1/2 ", "\t3\n", "3\n"])
def test_rational_must_be_a_string(value):
    with pytest.raises(PayloadError, match='must be a "p/q" string'):
        str_to_frac(value)


@pytest.mark.parametrize("value", ["1/0", "1" * 4301])
def test_not_a_rational(value):
    with pytest.raises(PayloadError, match="not a rational"):
        str_to_frac(value)


def test_map_roundtrip_bit_exact():
    rng = Random(13)
    for _ in range(30):
        m = random_interval_map(rng)
        assert obj_to_map(map_to_obj(m)) == m
        c = random_circle_map(rng, grounded=rng.random() < 0.5)
        assert obj_to_map(map_to_obj(c)) == c


def test_map_json_shape():
    m = build_separating_action("t").t
    obj = map_to_obj(m)
    assert obj["domain"] == "I"
    assert all(isinstance(x, str) and isinstance(y, str) for x, y in obj["points"])
    # through actual JSON text, still bit-exact
    again = obj_to_map(json.loads(json.dumps(obj)))
    assert again == m


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        obj_to_map({"domain": "R", "points": [["0", "0"], ["1", "1"]]})


def test_assignment_roundtrip():
    asg = build_separating_action("a^2 t^-1 b t")
    obj = assignment_to_obj(asg)
    again = obj_to_assignment(json.loads(json.dumps(obj)))
    assert again == asg


def test_faithful_bundle_fields():
    fa = build_faithful_on(["t", "a t^-1"])
    obj = faithful_to_obj(fa)
    assert obj["words"] == ["t", "a t^-1"]
    assert len(obj["witnesses"]) == 2


def test_graph_roundtrip():
    g = disjoint_union(path_graph("123"), single_vertex("4"))
    assert obj_to_graph(graph_to_obj(g)) == g


def test_classification_document():
    g = path_graph("1234")
    doc = classification_to_obj(g, classify(g), witness(g))
    assert doc["version"] == 1
    assert doc["cograph"] is False and doc["level"] is None
    assert doc["p4_witness"] == ["1", "2", "3", "4"]
    assert doc["witness"]["words"][3] == "4 1 4^-1"
    g2 = path_graph("123")
    doc2 = classification_to_obj(g2, classify(g2))
    assert doc2["level"] == 3 and doc2["cotree"][0] == "join"


def test_classification_documents_pinned():
    """Every classification document through 6 vertices, and each witness document, byte for byte."""
    h = hashlib.sha256()
    count = 0
    for n, edges in all_classes_up_to(6):
        g = as_simplicial(n, edges)
        cls = classify(g)
        docs = [classification_to_obj(g, cls)]
        if not cls.verdict.c1bv:
            docs.append(classification_to_obj(g, cls, witness(g)))
        for doc in docs:
            h.update(dumps_doc(doc).encode())
        count += len(docs)
    assert count == 348
    assert h.hexdigest() == "5817f155d0343afa8a0834e74892324c06cdd6735b24a295189ee4969288f569"


def test_dumps_deterministic():
    g = path_graph("1234")
    a = dumps_doc(classification_to_obj(g, classify(g)))
    b = dumps_doc(classification_to_obj(g, classify(g)))
    assert a == b and a.endswith("\n")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=5))
def test_dumps_doc_matches_json_dumps(doc):
    assert dumps_doc(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_dumps_doc_deep_nesting():
    def expected(depth):  # depth nested lists, the innermost empty
        opens = ["  " * i + "[" for i in range(depth - 1)]
        closes = ["  " * i + "]" for i in reversed(range(depth - 1))]
        return "\n".join(opens + ["  " * (depth - 1) + "[]"] + closes) + "\n"

    def nest(depth):
        doc = []
        for _ in range(depth - 1):
            doc = [doc]
        return doc

    assert expected(4) == json.dumps(nest(4), indent=2) + "\n"
    assert dumps_doc(nest(5000)) == expected(5000)
