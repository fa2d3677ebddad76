import json

import pytest

import raagdyn.cli
import raagdyn.cotree
from cograph_ref import is_p3_plus_point, threshold_graph
from raagdyn.cli import main
from raagdyn.graphs import format_edge_list
from raagdyn.serialize import map_to_obj
from raagdyn.plmaps import PLMapCircle
from raagdyn.randmaps import random_interval_map
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

    def test_verify_phi_supp_overlap_exits_2(self, tmp_path):
        rng = Random(1)
        m = random_interval_map(rng)
        payload = {"maps": {"b": map_to_obj(m), "c": map_to_obj(m), "d": map_to_obj(m)}}
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(payload))
        rc, _ = run(tmp_path, "verify", "phi-supp", "--input", str(p))
        assert rc == 2

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
    ],
    ids=[
        "points-int", "zero-den", "top-list", "null-map", "maps-list-rot",
        "maps-list-action", "triple-int", "word-int", "witness-int", "witness-outside",
        "not-increasing", "domain-x", "no-domain", "qmax-0", "word-unparsed", "word-exp-digits",
        "x0-outside", "x0-missing", "a-b-not-commuting", "action-on-circle",
        "triple-outside", "lamplighter-on-circle",
    ],
)
def test_malformed_payload_exits_2(tmp_path, capsys, argv, payload):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(payload))
    rc, _ = run(tmp_path, *argv, "--input", str(p))
    assert rc == 2
    assert "type" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "argv, data",
    [
        (["rot"], b"\xff\xfe not UTF-8"),
        (["rot"], b'{"domain": "S1", "points": ' + b"1" * 5000 + b"}"),
        (["classify"], b"# comments only: no vertex\n"),
    ],
    ids=["not-utf8", "json-int-digits", "empty-graph"],
)
def test_unusable_input_file_exits_2(tmp_path, capsys, argv, data):
    p = tmp_path / "bad"
    p.write_bytes(data)
    rc, _ = run(tmp_path, *argv, "--input", str(p))
    assert rc == 2
    assert "type" in json.loads(capsys.readouterr().err)["error"]


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

    def test_interval_map_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"domain": "I", "points": [["0", "0"], ["1", "1"]]}))
        rc, _ = run(tmp_path, "rot", "--input", str(p))
        assert rc == 2


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
