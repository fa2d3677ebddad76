import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import raagdyn.cli
import raagdyn.cotree
from cograph_ref import is_p3_plus_point, threshold_graph
from raagdyn.cli import build_parser, main
from raagdyn.graphs import format_edge_list
from raagdyn.serialize import map_to_obj
from raagdyn.plmaps import PLMapCircle
from raagdyn.randmaps import random_circle_map, random_interval_map, random_phi_triple
from raagdyn.actions import build_separating_action
from test_actions import random_word
from random import Random


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main(list(argv) + ["--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return rc, text


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text("1 2\n2 3\n3 4\n")
    return str(p)


class TestClassify:
    def test_p4_json(self, tmp_path, p4_file):
        rc, text = run(tmp_path, "classify", "--input", p4_file)
        assert rc == 0
        doc = json.loads(text)
        assert doc["verdict"]["c1bv"] is False
        assert doc["verdict"]["circle_class"] == "NoFaithfulC1bv"

    def test_single_vertex(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("vertex v\n")
        rc, text = run(tmp_path, "classify", "--input", str(p))
        doc = json.loads(text)
        assert rc == 0 and doc["level"] == 0
        assert all(doc["verdict"][k] for k in ("c1", "c1bv", "c_infinity", "c_omega"))

    def test_parse_error_exits_2(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\nnot a line at all\n")
        rc, _ = run(tmp_path, "classify", "--input", str(p))
        assert rc == 2

    def test_dot_input(self, tmp_path):
        p = tmp_path / "g.dot"
        p.write_text("graph G { a -- b -- c -- d; }\n")
        rc, text = run(tmp_path, "classify", "--input", str(p))
        assert rc == 0 and json.loads(text)["cograph"] is False

    def test_missing_file(self, tmp_path):
        rc, _ = run(tmp_path, "classify", "--input", str(tmp_path / "nope"))
        assert rc == 2

    @pytest.mark.parametrize("text, token", [
        ("graph { rankdir=LR; a -- b -- c -- d -- a }", "'rankdir=LR'"),
        ("graph { node [shape=circle]; a -- b }", "'node'"),
        ("graph { a -- b [color=red] }", "'[color=red]'"),
        ('graph { "a" -- b }', "'\"a\"'"),
        ("graph { a -- b } c -- d", "'c'"),
        ("graph { a -- b }\ngraph { e }", "'graph'"),
        ("graph [x=1] { a -- b }", "'[x=1]'"),
        ("graph node { a -- b }", "'node'"),
    ])
    def test_dot_outside_subset_exits_2(self, tmp_path, capsys, text, token):
        """DOT syntax outside the read subset is refused, never read as vertex names."""
        p = tmp_path / "g.dot"
        p.write_text(text + "\n")
        rc, out = run(tmp_path, "classify", "--input", str(p))
        err = json.loads(capsys.readouterr().err)["error"]
        assert rc == 2 and out == ""
        assert err["type"] == "GraphParseError" and f"unexpected token {token}" in err["message"]

    @pytest.mark.parametrize("text", ["GRAPH { a -- b }", "Strict Graph G { a -- b }"])
    def test_dot_keywords_in_any_case(self, tmp_path, text):
        p = tmp_path / "g.dot"
        p.write_text(text + "\n")
        rc, out = run(tmp_path, "classify", "--input", str(p), "--format", "text")
        assert rc == 0 and "level: 1" in out.splitlines()

    def test_hash_vertex_name_exits_2(self, tmp_path, capsys):
        """A name starting with "#" would be written back as a comment, so it is refused."""
        p = tmp_path / "g.txt"
        p.write_text("vertex a\na #x\n")
        rc, out = run(tmp_path, "classify", "--input", str(p))
        err = json.loads(capsys.readouterr().err)["error"]
        assert rc == 2 and out == ""
        assert err == {"type": "GraphParseError", "message": "line 2: vertex name '#x' starts with '#'"}

    def test_dot_c4_is_level_3(self, tmp_path):
        p = tmp_path / "c4.dot"
        p.write_text("graph { a -- b -- c -- d -- a }\n")
        rc, text = run(tmp_path, "classify", "--input", str(p))
        doc = json.loads(text)
        assert rc == 0 and doc["level"] == 3 and doc["verdict"]["c1bv"] is True


class TestWitness:
    def test_p4(self, tmp_path, p4_file):
        rc, text = run(tmp_path, "witness", "--input", p4_file)
        assert rc == 0
        assert json.loads(text)["witness"]["kind"] == "p4-conjugate"

    def test_smoothable_exits_1(self, tmp_path):
        p = tmp_path / "k3.txt"
        p.write_text("1 2\n2 3\n1 3\n")
        rc, text = run(tmp_path, "witness", "--input", str(p))
        assert rc == 1
        assert json.loads(text)["error"]["type"] == "NotApplicable"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("text", ["1 2\n2 3\n3 4\n", "a b\nb c\nvertex d\n", "x y\n"])
def test_witness_decomposes_once(tmp_path, monkeypatch, fmt, text):
    calls = []
    real = raagdyn.cotree.decompose
    monkeypatch.setattr(raagdyn.cotree, "decompose", lambda g: calls.append(g) or real(g))
    p = tmp_path / "g.txt"
    p.write_text(text)
    rc, _ = run(tmp_path, "witness", "--input", str(p), "--format", fmt)
    assert rc == (1 if text == "x y\n" else 0)
    assert len(calls) == 1


class TestRealizeAndVerify:
    def test_realize_then_reverify(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("t\na t^-1\nb^2 t a^-1 t^2\n")
        bundle = tmp_path / "bundle.json"
        rc = main(["realize", "--input", str(words), "--output", str(bundle)])
        assert rc == 0
        rc = main(["verify", "action", "--input", str(bundle), "--output", str(tmp_path / "v")])
        assert rc == 0
        assert "seed" not in json.loads((tmp_path / "v").read_text())  # it drew no sample

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_realize_past_int_str_digit_limit(self, tmp_path, fmt):
        """The witness image has more digits than Python's default int-to-str limit."""
        words = tmp_path / "words.txt"
        words.write_text("a^3000 t a^3000 t a^-3000\n")
        rc, text = run(tmp_path, "realize", "--input", str(words), "--format", fmt)
        assert rc == 0
        if fmt == "text":  # "x -> y", y printed in full
            assert len(text.split(" -> ")[1].split("/")[0]) > 4300
        else:  # run() wrote the bundle to tmp_path / "out"
            assert main(["verify", "action", "--input", str(tmp_path / "out"),
                         "--output", str(tmp_path / "v")]) == 0

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(witnesses=doc["witnesses"][:1]),
            lambda doc: doc["words"].append("a^2 t"),
            lambda doc: doc.update(x0="3/2"),
        ],
        ids=["one-witness", "extra-word", "x0-outside"],
    )
    def test_witnesses_pair_with_words(self, tmp_path, capsys, edit):
        """A bundle whose witnesses leave a word unevaluated, or whose x0 leaves [0, 1], exits 2."""
        words = tmp_path / "words.txt"
        words.write_text("a t\nb t^-1\nt a^-1\n")
        bundle = tmp_path / "bundle.json"
        assert main(["realize", "--input", str(words), "--output", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        assert len(doc["witnesses"]) == 3
        edit(doc)
        bundle.write_text(json.dumps(doc))
        rc, text = run(tmp_path, "verify", "action", "--input", str(bundle))
        assert (rc, text) == (2, "")
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "PayloadError"

    def test_failing_action_names_first_stuck_word(self, tmp_path):
        """A FAIL names the first word that fixes its witness; that pair alone, as a bundle, fails again."""
        words = tmp_path / "words.txt"
        words.write_text("a t\nb^2 t^-1\nt a^-1\n")
        bundle = tmp_path / "bundle.json"
        assert main(["realize", "--input", str(words), "--output", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        doc["witnesses"][1:] = ["1", "0"]  # every map fixes both ends of [0, 1]
        bundle.write_text(json.dumps(doc))
        rc, text = run(tmp_path, "verify", "action", "--input", str(bundle))
        detail = json.loads(text)["detail"]
        assert rc == 1
        assert detail == {"words": 3, "moved": 1, "stuck": 2,
                          "first_stuck": {"word": "b^2 t^-1", "x": "1"}}
        doc.update(words=[detail["first_stuck"]["word"]], witnesses=[detail["first_stuck"]["x"]])
        bundle.write_text(json.dumps(doc))
        rc, text = run(tmp_path, "verify", "action", "--input", str(bundle), "--format", "text")
        assert rc == 1
        assert text == ("action: FAIL {'words': 1, 'moved': 0, 'stuck': 1, "
                        "'first_stuck': {'word': 'b^2 t^-1', 'x': '1'}}\n")

    def test_trivial_word_exits_2(self, tmp_path):
        words = tmp_path / "words.txt"
        words.write_text("t\na b a^-1 b^-1\n")
        rc, _ = run(tmp_path, "realize", "--input", str(words))
        assert rc == 2

    def test_realize_all_short_words_recertifies(self, tmp_path):
        # every reduced alternating word of up to 4 syllables, exponents +-1
        from itertools import product

        ab_opts = ["a", "a^-1", "b", "b^-1", "a b", "a b^-1", "a^-1 b", "a^-1 b^-1"]
        t_opts = ["t", "t^-1"]
        lines = []
        for length in range(1, 5):
            for start_ab in (True, False):
                slots = [
                    ab_opts if (i % 2 == 0) == start_ab else t_opts
                    for i in range(length)
                ]
                lines.extend(" ".join(combo) for combo in product(*slots))
        words = tmp_path / "words.txt"
        words.write_text("\n".join(lines) + "\n")
        bundle = tmp_path / "bundle.json"
        assert main(["realize", "--input", str(words), "--output", str(bundle)]) == 0
        doc = json.loads(bundle.read_text())
        assert len(doc["words"]) == len(lines) == 714
        assert main(["verify", "action", "--input", str(bundle),
                     "--output", str(tmp_path / "v")]) == 0

    def test_verify_comm_supp_deterministic(self, tmp_path):
        rc1, text1 = run(tmp_path, "verify", "comm-supp", "--seed", "42", "--samples", "25")
        rc2, text2 = run(tmp_path, "verify", "comm-supp", "--seed", "42", "--samples", "25")
        assert rc1 == rc2 == 0
        assert text1 == text2
        doc = json.loads(text1)
        assert doc["passed"] and doc["detail"]["samples"] == 25 and doc["seed"] == 42

    @pytest.mark.parametrize("check", ["comm-supp", "phi-supp"])
    @pytest.mark.parametrize("samples", ["-3", "0"])
    def test_verify_samples_below_one_exits_2(self, tmp_path, capsys, check, samples):
        rc, text = run(tmp_path, "verify", check, "--samples", samples)
        assert rc == 2 and text == ""
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"

    def test_verify_comm_supp_thousand_samples(self, tmp_path):
        rc, text = run(tmp_path, "verify", "comm-supp", "--seed", "42", "--samples", "1000")
        doc = json.loads(text)
        assert rc == 0 and doc["passed"] and doc["detail"]["failures"] == 0

    def test_verify_sampled_failures_are_counted(self, tmp_path, monkeypatch):
        calls = []

        def every_third_fails(f, g):
            calls.append(None)
            return len(calls) % 3 != 0

        monkeypatch.setattr(raagdyn.cli, "check_commutator_support", every_third_fails)
        rc, text = run(tmp_path, "verify", "comm-supp", "--seed", "1", "--samples", "7")
        doc = json.loads(text)
        assert rc == 1 and doc["passed"] is False
        assert doc["detail"] == {"samples": 7, "failures": 2}
        rc, text = run(tmp_path, "verify", "comm-supp", "--seed", "1", "--samples", "7", "--format", "text")
        assert rc == 1 and text.startswith("comm-supp: FAIL")

    def test_verify_phi_supp_overlap_exits_2(self, tmp_path):
        rng = Random(1)
        m = random_interval_map(rng)
        payload = {"maps": {"b": map_to_obj(m), "c": map_to_obj(m), "d": map_to_obj(m)}}
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(payload))
        rc, _ = run(tmp_path, "verify", "phi-supp", "--input", str(p))
        assert rc == 2

    def test_verify_phi_supp_mixed_domains_exits_2(self, tmp_path, capsys):
        """Mixed domains are named before the overlapping supports of c and d."""
        payload = {"maps": {"b": _GOOD_S1, "c": _BUMP_I, "d": _BUMP_I}}
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(payload))
        rc, _ = run(tmp_path, "verify", "phi-supp", "--input", str(p))
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "DomainMismatchError"

    def test_verify_unknown_check(self, tmp_path):
        rc, _ = run(tmp_path, "verify", "nonsense")
        assert rc == 2

    def test_verify_lamplighter(self, tmp_path):
        g = {"domain": "I", "points": [["0", "0"], ["1/8", "1/8"], ["3/16", "15/64"], ["1/4", "1/4"], ["1", "1"]]}
        u = {"domain": "I", "points": [["0", "0"], ["1/8", "1/2"], ["1", "1"]]}
        p = tmp_path / "pair.json"
        p.write_text(json.dumps({"maps": {"g": g, "u": u}}))
        rc, text = run(tmp_path, "verify", "lamplighter", "--input", str(p))
        assert rc == 0
        assert json.loads(text)["detail"]["hull"] == ["1/8", "1/4"]
        # u too weak: exit 1
        u2 = {"domain": "I", "points": [["0", "0"], ["1/8", "3/16"], ["1", "1"]]}
        p.write_text(json.dumps({"maps": {"g": g, "u": u2}}))
        rc, _ = run(tmp_path, "verify", "lamplighter", "--input", str(p))
        assert rc == 1


_GOOD_S1 = {"domain": "S1", "points": [["0", "1/3"], ["1", "4/3"]]}
_ID_I = {"domain": "I", "points": [["0", "0"], ["1", "1"]]}
_ACTION = {"maps": {"a": _ID_I, "b": _ID_I, "t": _ID_I}, "x0": "1/2"}
_UP_I = {"domain": "I", "points": [["0", "0"], ["1/4", "1/2"], ["1", "1"]]}
_DOWN_I = {"domain": "I", "points": [["0", "0"], ["1/2", "1/4"], ["1", "1"]]}
_BUMP_I = {"domain": "I", "points": [["0", "0"], ["1/8", "1/8"], ["3/16", "15/64"], ["1/4", "1/4"], ["1", "1"]]}
# the malformed-payload cases below that fail outside `serialize`'s readers, with the type they raise
_NOT_PAYLOAD_ERRORS = {"top-list": "InputError", "qmax-0": "InputError",
                       "word-unparsed": "WordParseError", "word-exp-digits": "WordParseError"}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["rot"], {"domain": "S1", "points": 5}),
        (["rot"], {"domain": "S1", "points": [["0", "1/0"], ["1", "1"]]}),
        (["rot"], _GOOD_S1["points"]),
        (["verify", "comm-supp"], {"maps": {"f": None, "g": _GOOD_S1}}),
        (["rot"], {"maps": [1, 2]}),
        (["verify", "action"], {"maps": [1, 2]}),
        (["verify", "two-jumps"], {"maps": {"f": _ID_I, "g": _ID_I}, "triples": [5]}),
        (["verify", "action"], {**_ACTION, "words": [5]}),
        (["verify", "action"], {**_ACTION, "words": ["t"], "witnesses": [5]}),
        (["verify", "action"], {**_ACTION, "words": ["t"], "witnesses": ["2"]}),
        (["rot"], {"domain": "S1", "points": [["0", "1/2"], ["1/2", "1/4"], ["1", "3/2"]]}),
        (["rot"], {"domain": "X", "points": _GOOD_S1["points"]}),
        (["rot"], {"points": _GOOD_S1["points"]}),
        (["rot", "--qmax", "0"], _GOOD_S1),
        (["verify", "action"], {**_ACTION, "words": ["t^x"]}),
        (["verify", "action"], {**_ACTION, "words": ["a^" + "9" * 5000]}),
        (["verify", "action"], {**_ACTION, "x0": "3", "words": ["t"]}),
        (["verify", "action"], {"maps": _ACTION["maps"], "words": ["t"]}),
        (["verify", "action"], {"maps": {"a": _UP_I, "b": _DOWN_I, "t": _ID_I}, "x0": "1/2"}),
        (["verify", "action"], {"maps": {"a": _GOOD_S1, "b": _GOOD_S1, "t": _GOOD_S1}, "x0": "1/2"}),
        (["verify", "two-jumps"], {"maps": {"f": _ID_I, "g": _ID_I}, "triples": [["2", "3", "5"]]}),
        (["verify", "lamplighter"], {"maps": {"g": _BUMP_I, "u": _GOOD_S1}}),
        (["verify", "two-jumps"], {"maps": {"f": _GOOD_S1, "g": _GOOD_S1}, "triples": [["0", "1/2", "3/2"]]}),
        (["rot"], {"domain": "S1", "points": [[0, 0.5], [1, 1.5]]}),
        (["rot"], {"domain": "S1", "points": [[False, "1/2"], [True, "3/2"]]}),
        (["verify", "action"], {**_ACTION, "x0": 0.5}),
        (["verify", "two-jumps"], {"maps": {"f": _ID_I, "g": _ID_I}, "triples": [[0, "1/2", "1"]]}),
        (["verify", "action"], {**_ACTION, "words": ["t"], "witnesses": [0.5]}),
        (["rot"], {"maps": {"f": _ID_I}}),
        (["rot"], {"domain": "S1", "points": [["0", "1e4000000"], ["1", "1/2"]]}),
        (["rot"], {"domain": "S1", "points": [["0", " 1/2 "], ["1", "3/2"]]}),
        (["verify", "action"], {"maps": {"a": _UP_I, "b": _BUMP_I, "t": _ID_I}, "x0": "1/2"}),
    ],
    ids=[
        "points-int", "zero-den", "top-list", "null-map", "maps-list-rot",
        "maps-list-action", "triple-int", "word-int", "witness-int", "witness-outside",
        "not-increasing", "domain-x", "no-domain", "qmax-0", "word-unparsed", "word-exp-digits",
        "x0-outside", "x0-missing", "a-b-not-commuting", "action-on-circle",
        "triple-outside", "lamplighter-on-circle", "triple-outside-circle",
        "points-number", "points-bool", "x0-number", "triple-number", "witness-number", "rot-maps-interval",
        "rational-exponent", "rational-padded", "a-b-commutator-nontrivial",
    ],
)
def test_malformed_payload_exits_2(tmp_path, capsys, request, argv, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    rc, _ = run(tmp_path, *argv, "--input", str(p))
    assert rc == 2
    kind = json.loads(capsys.readouterr().err)["error"]["type"]
    assert kind == _NOT_PAYLOAD_ERRORS.get(request.node.callspec.id, "PayloadError")


@pytest.mark.parametrize(
    "argv, data",
    [
        (["rot"], b"\xff\xfe not UTF-8"),
        (["rot"], b'{"domain": "S1", "points": ' + b"1" * 5000 + b"}"),
        (["classify"], b"# comments only: no vertex\n"),
        (["rot"], b'{"domain":"S1","points":[["0","1/3"],[Infinity,"4/3"]]}'),
        (["verify", "two-jumps"],
         json.dumps({"maps": {"f": _ID_I, "g": _ID_I}, "triples": [["0", float("-inf"), "1/2"]]}).encode()),
        (["rot"], b"[" * 100_000 + b"]" * 100_000),
        (["verify", "c1"], b'{"maps": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    ],
    ids=["not-utf8", "json-int-digits", "empty-graph", "json-infinity", "json-minus-infinity",
         "json-deep-array", "json-deep-maps"],
)
def test_unusable_input_file_exits_2(tmp_path, capsys, argv, data):
    p = tmp_path / "bad"
    p.write_bytes(data)
    rc, _ = run(tmp_path, *argv, "--input", str(p))
    assert rc == 2
    assert "type" in json.loads(capsys.readouterr().err)["error"]


def test_deep_json_names_its_nesting(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_bytes(b"[" * 100_000 + b"]" * 100_000)
    assert run(tmp_path, "rot", "--input", str(p))[0] == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == f"{p}: invalid JSON: nested too deeply"


@pytest.mark.parametrize("exc", [ValueError, KeyError])
def test_internal_error_is_not_an_input_error(tmp_path, monkeypatch, exc):
    """Only the package's input-error types exit 2; a bug leaves with its traceback."""
    def broken(*args, **kwargs):
        raise exc("internal fault")

    monkeypatch.setattr(raagdyn.cli, "rotation_number", broken)
    p = tmp_path / "rot.json"
    p.write_text(json.dumps(_GOOD_S1))
    with pytest.raises(exc, match="internal fault"):
        main(["rot", "--input", str(p), "--output", str(tmp_path / "out")])


class TestRot:
    def test_exact_text(self, tmp_path):
        p = tmp_path / "rot.json"
        p.write_text(json.dumps(map_to_obj(PLMapCircle.rotation("1/3"))))
        rc, text = run(tmp_path, "rot", "--input", str(p), "--format", "text")
        assert rc == 0 and text.strip() == "1/3"

    def test_bounds_json(self, tmp_path):
        p = tmp_path / "rot.json"
        p.write_text(json.dumps(map_to_obj(PLMapCircle.rotation("1/97"))))
        rc, text = run(tmp_path, "rot", "--input", str(p), "--qmax", "10")
        doc = json.loads(text)
        assert rc == 0 and doc["result"]["kind"] == "bounds"

    def test_interval_map_rejected(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"domain": "I", "points": [["0", "0"], ["1", "1"]]}))
        rc, _ = run(tmp_path, "rot", "--input", str(p))
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "PayloadError", "message": "a map's 'domain' must be 'S1', got 'I'"}


# the commands of the README's CLI block; realize prints to stdout here, and
# `verify action` reads the bundle that the README's realize writes
_README_FILES = {
    "p4.txt": "1 2\n2 3\n3 4\n",
    "words.txt": "t\na t^-1\nb^2 t a^-1 t^2\n",
    "rot.json": '{"domain":"S1","points":[["0","1/3"],["1","4/3"]]}\n',
}
_README_COMMANDS = [
    ["classify", "--input", "p4.txt"],
    ["witness", "--input", "p4.txt"],
    ["realize", "--input", "words.txt"],
    ["verify", "action", "--input", "bundle.json"],
    ["verify", "comm-supp", "--seed", "42", "--samples", "1000"],
    ["verify", "phi-supp", "--seed", "7", "--samples", "200"],
    ["rot", "--input", "rot.json"],
]


class TestReadmeExamples:
    def test_stdout_is_pinned(self, tmp_path, monkeypatch, capsys):
        """Exit codes and stdout of every README example, in both formats, stay byte-identical."""
        monkeypatch.chdir(tmp_path)
        for name, text in _README_FILES.items():
            (tmp_path / name).write_text(text)
        assert main(["realize", "--input", "words.txt", "--output", "bundle.json"]) == 0
        h = hashlib.sha256((tmp_path / "bundle.json").read_bytes())
        for fmt in ("json", "text"):
            for argv in _README_COMMANDS:
                rc = main([*argv, "--format", fmt])
                out = capsys.readouterr().out
                h.update(f"{' '.join(argv)} --format {fmt}\n{rc}\n{out}".encode())
        assert out == "1/3\n"  # the README's rot example, in text
        assert h.hexdigest() == "d89bcb8575b6f653cdb9bf1ac6896b0fe2016810da88b00878daf873ca2dcbf3"


def threshold_file(tmp_path, n):
    p = tmp_path / f"threshold-{n}.txt"
    p.write_text(format_edge_list(threshold_graph(n)))
    return str(p)


class TestDeepCographs:
    """Threshold graphs whose cotrees are chains hundreds of nodes deep."""

    def test_threshold_400(self, tmp_path):
        path = threshold_file(tmp_path, 400)
        rc, text = run(tmp_path, "classify", "--input", path)
        assert rc == 0 and json.loads(text)["level"] == 399
        rc, text = run(tmp_path, "witness", "--input", path)
        doc = json.loads(text)
        assert rc == 0 and doc["witness"]["kind"] == "p3-plus-point"
        assert is_p3_plus_point(threshold_graph(400), doc["witness"]["vertices"])

    @pytest.mark.parametrize("cmd, fmt, want", [
        ("classify", "json", '"level": 999,'),
        ("classify", "text", "level: 999"),
        ("witness", "json", '"kind": "p3-plus-point"'),
        ("witness", "text", "kind: p3-plus-point"),
    ])
    def test_threshold_1000_exits_0(self, tmp_path, cmd, fmt, want):
        rc, text = run(tmp_path, cmd, "--input", threshold_file(tmp_path, 1000), "--format", fmt)
        assert rc == 0 and want in text


class TestOptionSurface:
    """Each subcommand takes only the options its handler reads."""

    @pytest.mark.parametrize("argv", [
        ["classify", "--seed", "1"],
        ["witness", "--samples", "5"],
        ["realize", "--qmax", "3"],
        ["rot", "--samples", "5"],
        ["rot", "--seed", "1"],
        ["verify", "comm-supp", "--qmax", "3"],
    ])
    def test_unread_option_exits_2(self, p4_file, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--input", p4_file])
        assert e.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("check, payload", [
        ("action", {**_ACTION, "words": ["t"]}),
        ("comm-supp", {"maps": {"f": _ID_I, "g": _ID_I}}),
        ("phi-supp", {"maps": {"b": _ID_I, "c": _ID_I, "d": _ID_I}}),
        ("c1", {"maps": {"b": _ID_I, "c": _ID_I, "d": _ID_I}}),
        ("lamplighter", {"maps": {"g": _BUMP_I, "u": _UP_I}}),
    ])
    @pytest.mark.parametrize("opts", [["--samples", "-3", "--seed", "9"], ["--seed", "0"], ["--samples", "100"]])
    def test_sample_options_without_draws_exit_2(self, tmp_path, capsys, check, payload, opts):
        p = tmp_path / "payload.json"
        p.write_text(json.dumps(payload))
        rc, text = run(tmp_path, "verify", check, "--input", str(p), *opts)
        assert rc == 2 and text == ""
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "InputError"

    @pytest.mark.parametrize("check", ["comm-supp", "phi-supp"])
    def test_omitted_sample_options_draw_seed_0_and_100_samples(self, tmp_path, check):
        rc, text = run(tmp_path, "verify", check)
        rc0, text0 = run(tmp_path, "verify", check, "--seed", "0", "--samples", "100")
        doc = json.loads(text)
        assert rc == rc0 == 0 and text == text0
        assert doc["seed"] == 0 and doc["detail"]["samples"] == 100

    def test_read_options_still_accepted(self, tmp_path):
        rc, text = run(tmp_path, "verify", "comm-supp", "--seed", "42", "--samples", "300")
        assert rc == 0 and json.loads(text)["detail"] == {"samples": 300, "failures": 0}
        p = tmp_path / "rot.json"
        p.write_text(json.dumps(map_to_obj(PLMapCircle.rotation("1/3"))))
        rc, text = run(tmp_path, "rot", "--input", str(p), "--qmax", "10", "--format", "text")
        assert rc == 0 and text == "1/3\n"


class TestFileErrors:
    """A path the CLI cannot read or write exits 2 with a JSON error naming it."""

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, where):
        p = tmp_path / "rot.json"
        p.write_text(json.dumps(_GOOD_S1))
        out = tmp_path / "nope" / "out.json" if where == "missing-dir" else tmp_path
        rc = main(["rot", "--input", str(p), "--output", str(out)])
        err = json.loads(capsys.readouterr().err)["error"]
        assert rc == 2 and err["type"] == "InputError"
        assert err["message"].startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("argv, message", [
        *[([cmd], "--input is required for this command") for cmd in ("classify", "witness", "realize", "rot")],
        (["rot", "--qmax", "0"], "--input is required for this command"),
        *[(["verify", check], f"{check} check needs --input") for check in ("c1", "two-jumps", "lamplighter", "action")],
    ])
    def test_missing_input_exits_2(self, tmp_path, capsys, argv, message):
        rc, text = run(tmp_path, *argv)
        err = json.loads(capsys.readouterr().err)["error"]
        assert rc == 2 and text == "" and err == {"type": "InputError", "message": message}

    @pytest.mark.parametrize("argv", [["rot"], ["verify", "comm-supp"]])
    @pytest.mark.parametrize("where, reason", [("missing", "No such file or directory"),
                                               ("directory", "Is a directory")])
    def test_unreadable_json_input_names_the_reason(self, tmp_path, capsys, argv, where, reason):
        path = tmp_path / "nope.json" if where == "missing" else tmp_path
        rc, _ = run(tmp_path, *argv, "--input", str(path))
        err = json.loads(capsys.readouterr().err)["error"]
        assert rc == 2 and err == {"type": "InputError", "message": f"cannot read {path}: {reason}"}


def _run_alone(argv):
    """Exit code and stdout of `argv` in a fresh interpreter."""
    src = str(Path(raagdyn.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "raagdyn.cli", *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def _run_here(argv):
    """Exit code, stdout and stderr of `argv` run by `main` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


class TestParserReuse:
    """One parser serves every call in a process; no call sees an earlier call's options."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_sample_defaults_after_explicit_options(self):
        first = ["verify", "comm-supp", "--seed", "5", "--samples", "3"]
        rc, out, _ = _run_here(first)
        assert (rc, out) == _run_alone(first) and json.loads(out)["seed"] == 5
        rc, out, _ = _run_here(["verify", "comm-supp"])
        doc = json.loads(out)
        assert doc["seed"] == 0 and doc["detail"]["samples"] == 100
        assert (rc, out) == (0, _run_alone(["verify", "comm-supp"])[1])

    def test_qmax_default_after_explicit_qmax(self, tmp_path):
        p = tmp_path / "rot.json"
        p.write_text(json.dumps(map_to_obj(PLMapCircle.rotation("5/7"))))
        first = ["rot", "--input", str(p), "--qmax", "3"]
        rc, out, _ = _run_here(first)
        assert (rc, out) == _run_alone(first) and json.loads(out)["result"]["kind"] == "bounds"
        rc, out, _ = _run_here(["rot", "--input", str(p)])
        doc = json.loads(out)
        assert doc["qmax"] == 64 and doc["result"] == {"kind": "exact", "value": "5/7"}
        assert (rc, out) == (0, _run_alone(["rot", "--input", str(p)])[1])

    def test_good_call_after_argparse_error(self, tmp_path):
        rc, out, err = _run_here(["rot", "--seed", "1"])
        assert rc == 2 and out == "" and "unrecognized arguments" in err
        argv = ["verify", "phi-supp", "--seed", "3", "--samples", "4", "--format", "text"]
        rc, out, _ = _run_here(argv)
        assert (rc, out) == (0, _run_alone(argv)[1])


# Pieces the fuzzers below assemble into input files: mostly well-formed, with
# junk mixed in so every reader also meets broken input.  Exponents stay small.
_VERTICES = st.sampled_from(["1", "2", "3", "4", "5", "a", "b"])
_JUNK = st.sampled_from(["vertex", "graph", "strict", "--", "#", "{", "}", ";", "//", "x y z", ""])
_FRACS = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "3/4", "4/3", "3/2", "-1", "1/0", "x", "", "2"])
_JSON_LEAF = (_FRACS | st.integers(-3, 3) | st.none() | st.booleans() | st.just([]) | st.just({})
              | st.sampled_from([float("inf"), float("-inf"), float("nan")]))


@st.composite
def _edge_lists(draw):
    line = (st.tuples(_VERTICES, _VERTICES).map(" ".join) | _VERTICES.map("vertex {}".format)
            | st.lists(_VERTICES | _JUNK, max_size=3).map(" ".join))
    return "\n".join(draw(st.lists(line, max_size=10))) + "\n"


@st.composite
def _dot_files(draw):
    chain = st.lists(_VERTICES, min_size=1, max_size=4).map(" -- ".join) | _JUNK
    body = "; ".join(draw(st.lists(chain, max_size=6)))
    head = draw(st.sampled_from(["graph G {", "strict graph {", "graph {", "graph", "strict G {", "graph G"]))
    return f"{head} {body}{draw(st.sampled_from([' }', '', ' } }', ' // }', ';}']))}\n"


@st.composite
def _word_files(draw):
    good = st.tuples(st.sampled_from("abt"), st.integers(-4, 4)).map(lambda g: f"{g[0]}^{g[1]}")
    junk = st.sampled_from(["a", "t", "c", "1", "#", "^2", "a^", "t^x", "b^--1", "a2"])
    token = st.integers(0, 7).flatmap(lambda k: junk if k == 0 else good)  # one token in eight is junk
    return "\n".join(draw(st.lists(st.lists(token, max_size=5).map(" ".join), max_size=4))) + "\n"


def _maps(rng, keys):
    """Well-formed maps for `keys`: a phi triple for b, c, d, a separating action for a, b, t."""
    domain = rng.choice(("I", "S1"))
    if keys == "bcd":
        return dict(zip(keys, map(map_to_obj, random_phi_triple(rng, domain))))
    if keys == "abt":
        asg = build_separating_action(random_word(rng, 3, 3))
        return {"a": map_to_obj(asg.a), "b": map_to_obj(asg.b), "t": map_to_obj(asg.t)}
    if keys == "gu" or domain == "I":
        return {k: map_to_obj(random_interval_map(rng, 3)) for k in keys}
    return {k: map_to_obj(random_circle_map(rng, 3)) for k in keys}


_CHECK_KEYS = {"comm-supp": "fg", "phi-supp": "bcd", "c1": "bcd", "two-jumps": "fg",
               "lamplighter": "gu", "action": "abt"}


@st.composite
def _map_json(draw, junk=True):
    """A command and a payload for it, with `junk` sometimes one field replaced by junk."""
    check = draw(st.sampled_from(["rot", *_CHECK_KEYS]))
    rng = Random(draw(st.integers(0, 10 ** 6)))
    if check == "rot":
        argv = ["rot", *draw(st.sampled_from([[], ["--qmax", "5"]]))]
        doc = _maps(rng, "f")
        doc = doc["f"] if draw(st.booleans()) else {"maps": doc}
    else:
        argv = ["verify", check]
        doc = {"maps": _maps(rng, _CHECK_KEYS[check])}
    if check == "two-jumps":
        doc["triples"] = draw(st.lists(st.lists(st.sampled_from(["0", "1", "1/2", "1/3"]), min_size=3, max_size=3),
                                       max_size=3))
    if check == "action":
        doc["x0"] = draw(st.sampled_from(["1/2", "1/7", "0"]))
        doc["words"] = draw(st.lists(st.sampled_from(["t", "a t^-1", "b^2 t a^-1", "a b"]), max_size=3))
    if junk and draw(st.integers(0, 2)) == 0:  # break one field, one level down
        target = doc.get("maps", doc)
        key = draw(st.sampled_from(sorted(target)))
        if isinstance(target[key], dict) and draw(st.booleans()):
            target = target[key]
            key = draw(st.sampled_from(["points", "domain"]))
        target[key] = draw(_JSON_LEAF | st.lists(st.lists(_FRACS, min_size=2, max_size=2), max_size=3))
    return argv, doc


def _rational_slots(doc):
    """(container, key) of every "p/q" string in a payload that `_map_json` built."""
    maps = doc["maps"].values() if "maps" in doc else [doc]
    slots = [(pair, j) for m in maps for pair in m["points"] for j in (0, 1)]
    slots += [(t, j) for t in doc.get("triples", []) for j in range(3)]
    if "x0" in doc:
        slots.append((doc, "x0"))
    return slots


_FUZZ = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestReaderFuzz:
    """Drawn edge-list, DOT, word and map-JSON files through `main`: exit 0, 1 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def exits_cleanly(fuzz_dir, argv, data):
        p = fuzz_dir / "input"
        p.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8", "surrogatepass"))
        rc, _, err = _run_here([*argv, "--input", str(p)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert json.loads(err)["error"]["type"]

    @_FUZZ
    @given(text=_edge_lists() | _dot_files(), cmd=st.sampled_from(["classify", "witness"]),
           fmt=st.sampled_from(["json", "text"]))
    def test_graph_readers(self, fuzz_dir, text, cmd, fmt):
        self.exits_cleanly(fuzz_dir, [cmd, "--format", fmt], text)

    @_FUZZ
    @given(text=_word_files(), fmt=st.sampled_from(["json", "text"]))
    def test_word_reader(self, fuzz_dir, text, fmt):
        self.exits_cleanly(fuzz_dir, ["realize", "--format", fmt], text)

    @_FUZZ
    @given(case=_map_json(), fmt=st.sampled_from(["json", "text"]))
    def test_map_json_reader(self, fuzz_dir, case, fmt):
        argv, doc = case
        self.exits_cleanly(fuzz_dir, [*argv, "--format", fmt], json.dumps(doc))

    @_FUZZ
    @given(case=_map_json(junk=False), data=st.data())
    def test_number_for_a_rational_exits_2(self, fuzz_dir, case, data):
        """One "p/q" string of a well-formed payload written as a JSON number or boolean."""
        argv, doc = case
        target, key = data.draw(st.sampled_from(_rational_slots(doc)))
        value = Fraction(target[key])
        target[key] = data.draw(st.sampled_from([int(value) if value.denominator == 1 else float(value), True, False]))
        p = fuzz_dir / "input"
        p.write_text(json.dumps(doc))
        rc, _, err = _run_here([*argv, "--input", str(p)])
        assert rc == 2
        assert json.loads(err)["error"]["message"].startswith('a rational must be a "p/q" string, got ')

    @_FUZZ
    @given(data=st.binary(max_size=40) | st.text(max_size=40),
           argv=st.sampled_from([["rot"], ["verify", "action"], ["classify"], ["realize"]]))
    def test_arbitrary_bytes(self, fuzz_dir, data, argv):
        self.exits_cleanly(fuzz_dir, argv, data)
