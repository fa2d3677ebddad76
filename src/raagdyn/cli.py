"""Command line front end: classify, witness, realize, verify, rot.

Exit codes: 0 on success, 1 when a verification fails or a witness does not
apply (classify verdicts always exit 0), 2 on input errors.  With a fixed
seed every run byte-reproduces its output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from random import Random

from . import serialize
from .actions import build_faithful_on, evaluate_word_at
from .checks import (
    HypothesisViolatedError,
    check_c1_containment,
    check_commutator_support,
    check_phi_support,
    check_two_jumps_prefix,
)
from .cotree import EmptyGraphError, NotApplicableError, classify, witness
from .graphs import GraphError, load_graph
from .lamplighter import IdentityInputError, lamplighter_certificate
from .plmaps import DomainMismatchError, PLMapCircle, PLMapInterval, rotation_number
from .randmaps import random_pair, random_phi_triple
from .serialize import PayloadError, dumps_doc, frac_to_str
from .words import TrivialWordError, WordParseError, format_word, parse_word

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2

# what `verify` draws when it draws samples and --seed or --samples is omitted
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100


class InputError(ValueError):
    pass


def _read(args) -> str:
    """The text of the --input file, which the command requires."""
    if not args.input:
        raise InputError("--input is required for this command")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {args.input}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {args.input}: not UTF-8 text ({e.reason})") from e


def _write_output(args, text: str):
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {args.output}: {e.strerror}") from e
    else:
        sys.stdout.write(text)


def _load_json(args) -> dict:
    text = _read(args)
    try:
        doc = json.loads(text)
    except ValueError as e:  # a JSONDecodeError, or an integer past the int-to-str digit limit
        raise InputError(f"{args.input}: invalid JSON: {e}") from e
    except RecursionError as e:  # the decoder recurses once per nesting level
        raise InputError(f"{args.input}: invalid JSON: nested too deeply") from e
    if not isinstance(doc, dict):
        raise InputError(f"{args.input}: the top-level JSON value must be an object")
    return doc


def _emit(args, doc: dict, text_lines: list[str]):
    if args.format == "text":
        _write_output(args, "\n".join(text_lines) + "\n")
    else:
        _write_output(args, dumps_doc(doc))


def cmd_classify(args) -> int:
    g = load_graph(_read(args))
    cls = classify(g)
    doc = serialize.classification_to_obj(g, cls)
    verdict = doc["verdict"]
    lines = [
        f"cograph: {doc['cograph']}",
        f"level: {doc['level']}",
        f"p4_witness: {doc['p4_witness']}",
        "verdict: c1={c1} c1bv={c1bv} c_infinity={c_infinity} "
        "c_omega={c_omega} circle={circle_class}".format(**verdict),
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_witness(args) -> int:
    g = load_graph(_read(args))
    cls = classify(g)
    try:
        w = witness(g)
    except NotApplicableError as e:
        doc = serialize.classification_to_obj(g, cls)
        doc["error"] = {"type": "NotApplicable", "message": str(e)}
        _emit(args, doc, [f"not applicable: {e}"])
        return EXIT_FAILED
    doc = serialize.classification_to_obj(g, cls, witness=w)
    lines = [
        f"kind: {w.kind}",
        f"vertices: {' '.join(w.vertices)}",
        f"words: {', '.join(w.words)}",
        f"group: {w.group}",
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_realize(args) -> int:
    words = []
    for lineno, raw in enumerate(_read(args).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            w = parse_word(line)
        except WordParseError as e:
            raise InputError(f"line {lineno}: {e}") from e
        if w.is_identity():
            raise InputError(f"line {lineno}: word {line!r} reduces to the identity")
        words.append(w)
    if not words:
        raise InputError("no words given")
    fa = build_faithful_on(words)
    fa.assignment.validate()
    moved = []
    for w, x in zip(fa.words, fa.witnesses):
        y = evaluate_word_at(fa.assignment, w, x)
        if y == x:
            raise AssertionError("realized action failed to move a witness point")
        moved.append((x, y))
    doc = serialize.faithful_to_obj(fa)
    lines = [
        f"{serialize.frac_to_str(x)} -> {serialize.frac_to_str(y)}" for x, y in moved
    ]
    _emit(args, doc, lines)
    return EXIT_OK


def _verify_sampled(args, payload, keys, draw, check):
    """Run `check` on the payload maps named by `keys`, else on seeded draws."""
    if payload is not None:
        ok = check(*serialize.payload_maps(payload, keys))
        return ok, {"samples": 1, "failures": 0 if ok else 1}
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    rng = Random(args.seed)
    failures = 0
    for i in range(args.samples):
        domain = "S1" if i % 4 == 3 else "I"
        if not check(*draw(rng, domain)):
            failures += 1
    return failures == 0, {"samples": args.samples, "failures": failures}


def _verify_comm_supp(args, payload):
    return _verify_sampled(args, payload, "fg", random_pair, check_commutator_support)


def _verify_phi_supp(args, payload):
    return _verify_sampled(args, payload, "bcd", random_phi_triple, check_phi_support)


def _verify_c1(args, payload):
    b, c, d = serialize.payload_maps(payload, "bcd")
    report = check_c1_containment(b, c, d)
    detail = {
        "holds": report.holds,
        "violating": serialize.set_to_obj(report.violating),
        "assertable": False,
    }
    return True, detail  # report-only: PL maps may legitimately violate this


def _verify_two_jumps(args, payload):
    f, g = serialize.payload_maps(payload, "fg")
    triples = serialize.payload_list(
        payload, "triples", lambda t: isinstance(t, list) and len(t) == 3, "[s, t, y] lists"
    )
    triples = [tuple(map(serialize.str_to_frac, t)) for t in triples]
    if isinstance(f, PLMapInterval) and not all(0 <= v <= 1 for t in triples for v in t):
        raise PayloadError("'triples' on the interval need values in [0, 1]")
    if isinstance(f, PLMapCircle) and not all(0 <= v < 1 for t in triples for v in t):
        raise PayloadError("'triples' on the circle need values in [0, 1)")
    report = check_two_jumps_prefix(f, g, triples)
    detail = {
        "valid": report.valid,
        "gaps": [frac_to_str(x) for x in report.gaps],
        "failures": list(report.failures),
    }
    return report.valid, detail


def _verify_lamplighter(args, payload):
    g, u = serialize.payload_maps(payload, "gu", PLMapInterval)
    cert = lamplighter_certificate(g, u)
    if cert is None:
        return False, {"certified": False}
    lo, hi = cert.hull
    return True, {
        "certified": True,
        "hull": [frac_to_str(lo), frac_to_str(hi)],
        "j_checked": cert.j_checked,
    }


def _verify_action(args, payload):
    asg = serialize.obj_to_assignment(payload)
    try:
        asg.validate()
    except ValueError as e:  # a and b do not commute, or their supports meet
        raise PayloadError(f"action bundle: {e}") from e
    words = [parse_word(s) for s in serialize.payload_list(payload, "words")]
    witnesses = [serialize.str_to_frac(s) for s in serialize.payload_list(payload, "witnesses")]
    if witnesses and len(witnesses) != len(words):
        raise PayloadError(f"{len(witnesses)} witnesses for {len(words)} words; give one per word or none")
    if not all(0 <= x <= 1 for x in [asg.basepoint, *witnesses]):
        raise PayloadError("witness points and 'x0' must lie in [0, 1]")
    stuck = [(w, x) for w, x in zip(words, witnesses or [asg.basepoint] * len(words))
             if evaluate_word_at(asg, w, x) == x]
    detail = {"words": len(words), "moved": len(words) - len(stuck), "stuck": len(stuck)}
    if stuck:  # the first word that fixes its point, as a bundle would give it
        w, x = stuck[0]
        detail["first_stuck"] = {"word": format_word(w), "x": frac_to_str(x)}
    return not stuck, detail


_SAMPLED_CHECKS = ("comm-supp", "phi-supp")

_CHECKS = {
    "comm-supp": _verify_comm_supp,
    "phi-supp": _verify_phi_supp,
    "c1": _verify_c1,
    "two-jumps": _verify_two_jumps,
    "lamplighter": _verify_lamplighter,
    "action": _verify_action,
}


def cmd_verify(args) -> int:
    if args.check not in _CHECKS:
        raise InputError(
            f"unknown check {args.check!r}; choose from {sorted(_CHECKS)}"
        )
    payload = _load_json(args) if args.input else None
    draws = payload is None and args.check in _SAMPLED_CHECKS
    if draws:
        args.seed = DEFAULT_SEED if args.seed is None else args.seed
        args.samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    elif args.seed is not None or args.samples is not None:
        raise InputError(
            f"--seed and --samples apply only to {' and '.join(_SAMPLED_CHECKS)} without --input"
        )
    elif payload is None:
        raise InputError(f"{args.check} check needs --input")
    passed, detail = _CHECKS[args.check](args, payload)
    doc = {
        "version": serialize.SCHEMA_VERSION,
        "kind": "verification",
        "check": args.check,
        "passed": passed,
        "detail": detail,
    }
    if draws:
        doc["seed"] = args.seed
    lines = [f"{args.check}: {'pass' if passed else 'FAIL'} {detail}"]
    _emit(args, doc, lines)
    return EXIT_OK if passed else EXIT_FAILED


def cmd_rot(args) -> int:
    payload = _load_json(args)
    if args.qmax < 1:
        raise InputError(f"--qmax must be at least 1, got {args.qmax}")
    m = (serialize.payload_maps(payload, "f", PLMapCircle)[0] if "maps" in payload
         else serialize.obj_to_map(payload, PLMapCircle))
    res = rotation_number(m, q_max=args.qmax)
    doc = {
        "version": serialize.SCHEMA_VERSION,
        "kind": "rotation",
        "qmax": args.qmax,
        "result": serialize.rotation_to_obj(res),
    }
    if res.is_exact():
        lines = [frac_to_str(res.value)]
    else:
        lines = [f"[{frac_to_str(res.lo)}, {frac_to_str(res.hi)}]"]
    _emit(args, doc, lines)
    return EXIT_OK


@functools.cache  # built on first use, once per process; parse_args still returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raagdyn",
        description="Classify right-angled Artin group actions on one-manifolds "
        "and build/verify exact PL dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--input", help="input file path")
        p.add_argument("--output", help="output file path (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    add("classify", cmd_classify, "smoothability verdict for a graph")
    add("witness", cmd_witness, "obstruction witness words for a graph")
    add("realize", cmd_realize, "action moving a point for every listed word")
    p = add("rot", cmd_rot, "rotation number of a circle map")
    p.add_argument("--qmax", type=int, default=64)
    p = add("verify", cmd_verify, "run a named checker")
    p.add_argument("check", help="one of: " + ", ".join(sorted(_CHECKS)))
    sampled = "only for comm-supp and phi-supp without --input"
    p.add_argument("--seed", type=int, help=f"seed of the drawn samples (default {DEFAULT_SEED}); {sampled}")
    p.add_argument("--samples", type=int, help=f"samples to draw (default {DEFAULT_SAMPLES}); {sampled}")
    return parser


# the package's own input-error types; any other exception is a bug and
# leaves with its traceback
_INPUT_ERRORS = (
    InputError,
    PayloadError,
    GraphError,
    EmptyGraphError,
    WordParseError,
    TrivialWordError,
    HypothesisViolatedError,
    IdentityInputError,
    NotApplicableError,
    DomainMismatchError,
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as e:
        kind = type(e).__name__
        sys.stderr.write(dumps_doc({"error": {"type": kind, "message": str(e)}}))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
