"""The four workloads: seeded op streams whose every op is checked.

A workload hands out its stream one cycle at a time.  A cycle is a fixed mix
of op kinds and input sizes; the seed varies the inputs inside each slot, so
the mix, and with it the latency percentiles, is the same for every seed.
An op runs the program and raises `Mismatch` when the answer differs from
the ground truth that `gen` built alongside the input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from functools import partial
from random import Random

import gen
from raagdyn import cli
from raagdyn.actions import (
    build_separating_action,
    evaluate_word_at,
    materialize_plan,
    plan_apply_word,
    plan_separating_action,
)
from raagdyn.checks import check_commutator_support, check_phi_support
from raagdyn.cotree import classify, witness
from raagdyn.graphs import load_graph
from raagdyn.lamplighter import lamplighter_certificate
from raagdyn.plmaps import (
    PLMapCircle,
    PLMapInterval,
    commutator,
    compose,
    invert,
    power,
    rotation_number,
)
from raagdyn.words import FreeProductWord

F = Fraction

# ROADMAP's known defects: an op that probes one names the exception types
# that reproduce it.  Such an op passes if it raises one of them (the defect,
# counted in known_defect_ops) or gives the right answer (the defect fixed);
# anything else fails it.
DEEP_RECURSION = "deep-cograph RecursionError"
MALFORMED = "malformed-payload traceback"

# per-layer counters every traced run reports, whatever the workload, with units
COUNTERS = {
    "sep.ab_key_hit_ratio": "ratio",
    "props.rotation_exact_ratio": "ratio",
    "actions.plan.scale_bits_max": "bits",
    "plmaps.points_out_max": "count",
    "plmaps.den_bits_max": "bits",
    "classify.cotree_depth_max": "count",
    "cli.stdout_bytes": "bytes",
}


class Mismatch(Exception):
    """The program answered, but not what the ground truth says."""


class Op:
    __slots__ = ("kind", "run", "known")

    def __init__(self, kind: str, run, known=None):
        self.kind = kind
        self.run = run
        self.known = known or {}  # exception type name -> defect it reproduces


def _expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


class Workload:
    name = ""
    trace_cycles = 1  # cycles in a traced run: fixed, so its counts repeat exactly

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self.counting = False
        self.reset()

    def rng(self, i: int) -> Random:
        return Random(f"{self.seed}:{self.name}:{i}")

    def reset(self):
        """Forget per-pass state, so a replay of the same cycles repeats it."""
        self.raw = dict.fromkeys(
            ("ab_hits", "ab_lookups", "rot_exact", "rot_calls", "scale_bits",
             "points_out", "den_bits", "cotree_depth", "stdout_bytes"), 0)

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self):
        """One small op before the first timed one; part of set-up."""
        raise NotImplementedError

    def checks(self) -> list[tuple[str, bool]]:
        """Whole-run checks made after the timed cycles, as (name, passed)."""
        return []

    def counters(self) -> dict:
        r = self.raw
        return {
            "sep.ab_key_hit_ratio": r["ab_hits"] / r["ab_lookups"] if r["ab_lookups"] else 0.0,
            "props.rotation_exact_ratio": r["rot_exact"] / r["rot_calls"] if r["rot_calls"] else 0.0,
            "actions.plan.scale_bits_max": r["scale_bits"],
            "plmaps.points_out_max": r["points_out"],
            "plmaps.den_bits_max": r["den_bits"],
            "classify.cotree_depth_max": r["cotree_depth"],
            "cli.stdout_bytes": r["stdout_bytes"],
        }

    def _top(self, key: str, value: int):
        if value > self.raw[key]:
            self.raw[key] = value

    def note_maps(self, *maps):
        if not self.counting:
            return
        for m in maps:
            self._top("points_out", len(m.points))
            self._top("den_bits", max(
                max(x.denominator.bit_length(), y.denominator.bit_length())
                for x, y in m.points))


# --- sep-enum ----------------------------------------------------------------


class SepEnum(Workload):
    """Criterion 6's per-word pipeline on slices of its length-5 and -6 tasks."""

    name = "sep-enum"
    trace_cycles = 4
    SLICE = 96  # a slice meets at least 24 distinct abelian keys: ~3 misses in 10
    KINDS = ((6, gen.AB), (6, gen.T), (5, gen.AB), (5, gen.T))
    STRIDE = 5000  # every k-th word also goes through the full PL path

    def reset(self):
        super().reset()
        self.index = 0  # ops decided in this pass, for the stride

    def cycle(self, i):
        # the acceptance test caches a/b verdicts per worker across whole
        # tasks; here each cycle gets its own cache, so that every cycle
        # sees the same hit ratio however long the run is
        rng = self.rng(i)
        cache: dict = {}
        return [
            Op("word", partial(self.decide, FreeProductWord(syl), cache))
            for length, start in self.KINDS
            for syl in gen.c6_slice(rng, length, start, self.SLICE)
        ]

    def warmup(self):
        self.decide(FreeProductWord((("ab", 1, 0), ("t", 1))), {})
        self.reset()

    def checks(self):
        """The word space the slices come from is criterion 6's, counted in closed form."""
        out = [
            (f"c6-words-length-{n}", sum(gen.c6_task_sizes(n)) == gen.c6_count(n) == want)
            for n, want in gen.C6_COUNTS.items()
        ]
        out.append(("c6-words-total", sum(gen.c6_count(n) for n in range(1, 7)) == gen.C6_TOTAL))
        return out

    def decide(self, word, cache):
        plan = plan_separating_action(word)
        key = tuple(s for s in plan.standard.syllables if s[0] == gen.AB)
        passed = cache.get(key)
        hit = passed is not None
        if not hit:
            asg = materialize_plan(plan)
            comm = commutator(asg.a, asg.b)
            passed = (
                comm.is_identity()
                and asg.a.support().intersection(asg.b.support()).is_empty()
            )
            cache[key] = passed
            self.note_maps(asg.a, asg.b, asg.t, comm)
        num, den = plan_apply_word(plan, word, plan.base_num, plan.base_den)
        moved = num * plan.base_den != plan.base_num * den
        if self.index % self.STRIDE == 0:
            full = build_separating_action(word)
            full.validate()
            moved = moved and evaluate_word_at(full, word, full.basepoint) != full.basepoint
        self.index += 1
        if self.counting:
            self.raw["ab_lookups"] += 1
            self.raw["ab_hits"] += hit
            self._top("scale_bits", plan.scale.bit_length())
        _expect(passed, "a and b fail to commute or their supports meet")
        _expect(moved, "word does not move the basepoint")


# --- pl-props ----------------------------------------------------------------


_interval = PLMapInterval.from_points
_circle = PLMapCircle.from_points


class PLProps(Workload):
    """Criteria 7, 8 and 9 style property instances on small and large maps."""

    name = "pl-props"
    trace_cycles = 2

    def cycle(self, i):
        # sized so p50 falls mid-way through the phi checks and p90 among
        # the lamplighter certificates.  Input shapes whose cost differs (a
        # bump b or not in phi checks, the rotation period q, the lamplighter
        # pair's breakpoints) are fixed per slot rather than drawn, so a run's
        # percentiles do not hang on how many dear shapes its seed drew.
        rng = self.rng(i)
        ops = []
        for j in range(8):  # every 4th instance on the circle, as criterion 7
            s1 = j % 4 == 3
            ops.append(self._comm_op(rng, rng.randint(0, 5), s1))
            ops.append(self._phi_op(rng, s1, bump_b=j in (0, 2, 5, 7)))
        ops += [self._comm_op(rng, 50, False) for _ in range(4)]
        ops.append(self._comm_op(rng, 500, False))
        ops += [self._rot_op(rng, rng.randint(lo, lo + 1)) for lo in (1, 3, 5)]
        ops += [self._lamp_op(rng, bumps, extra) for extra in (False, True) for bumps in (1, 2, 3)]
        return ops

    def warmup(self):
        f = _interval(gen.interval_points(Random(0), 2))
        check_commutator_support(f, f)

    def _comm_op(self, rng, breaks, s1):
        if s1:
            f = _circle(gen.circle_points(rng, breaks, rng.random() < 0.6))
            g = _circle(gen.circle_points(rng, rng.randint(0, 5), rng.random() < 0.6))
        else:
            f = _interval(gen.interval_points(rng, breaks))
            g = _interval(gen.interval_points(rng, breaks if breaks > 5 else rng.randint(0, 5)))
        kind = f"comm-supp-{'S1' if s1 else 'I'}-{breaks if breaks > 5 else 'small'}"
        return Op(kind, partial(self.comm_supp, f, g))

    def comm_supp(self, f, g):
        _expect(check_commutator_support(f, g), "commutator support containment violated")

    def _phi_op(self, rng, s1, bump_b):
        c, d = gen.disjoint_bumps(rng)
        if bump_b:
            lo, hi = F(rng.randint(1, 4), 64), 1 - F(rng.randint(1, 4), 64)
            b = gen.bump_points(rng, lo, hi, rng.randint(1, 4))
        elif s1:
            b = gen.circle_points(rng, rng.randint(0, 4), True)
        else:
            b = gen.interval_points(rng, rng.randint(0, 5))
        make = _circle if s1 else _interval
        maps = (make(b), make(c), make(d))
        return Op(f"phi-supp-{'S1' if s1 else 'I'}", partial(self.phi_supp, *maps))

    def phi_supp(self, b, c, d):
        _expect(check_phi_support(b, c, d), "phi support containment violated")

    def _rot_op(self, rng, q):
        p = rng.randrange(q)
        f = _circle(gen.periodic_circle_points(rng, p, q))
        k = _circle(gen.circle_points(rng, rng.randint(1, 3), rng.random() < 0.5))
        return Op("rotation", partial(self.rotation, f, k, F(p, q)))

    def rotation(self, f, k, rot):
        results = [(rotation_number(f, q_max=12), rot)]
        conj = compose(compose(k, f), invert(k))
        results.append((rotation_number(conj, q_max=12), rot))
        for n in (2, 3):
            fn = power(f, n)
            results.append((rotation_number(fn, q_max=12), n * rot % 1))
        self.note_maps(conj, fn)
        if self.counting:
            self.raw["rot_calls"] += len(results)
            self.raw["rot_exact"] += sum(res.is_exact() for res, _ in results)
        for res, want in results:
            _expect(res.is_exact() and res.value == want, f"rotation number {res} != {want}")

    def _lamp_op(self, rng, bumps, extra):
        g, u, hull = gen.certified_pair(rng, bumps, extra)
        return Op("lamplighter", partial(self.lamplighter, _interval(g), _interval(u), hull))

    def lamplighter(self, g, u, hull):
        cert = lamplighter_certificate(g, u)
        _expect(cert is not None, "certified pair refused")
        _expect(cert.hull == hull and cert.j_checked == 20, f"hull {cert.hull} != {hull}")


# --- classify ----------------------------------------------------------------


def _check_classification(g: gen.Graph, level, cograph: bool, got, nested):
    """Check the program's (cograph, level, verdict, P4) against the truth.

    `level` None on a cograph means the truth is not known in advance: the
    program's cotree `nested` must then encode g, and its level counts.
    Returns the level.
    """
    got_cograph, got_level, verdict, p4 = got
    _expect(got_cograph == cograph, f"cograph {got_cograph}, expected {cograph}")
    if cograph:
        if level is None:  # claimed by the program; check the certificate
            _expect(gen.cotree_matches(g, nested), "cotree does not encode the graph")
            level = gen.level_of(nested)
        _expect(got_level == level, f"level {got_level}, expected {level}")
    else:
        _expect(p4 is not None and gen.is_induced_p4(g, p4), f"{p4} is not an induced P4")
    _expect(verdict == gen.verdict_for_level(level if cograph else None),
            f"verdict {verdict} for level {level}")
    return level


def _check_witness(g: gen.Graph, level, kind, quad):
    if level is None:
        _expect(kind == "p4-conjugate" and gen.is_induced_p4(g, quad),
                f"{kind} {quad} is not an induced P4")
    else:
        _expect(level >= 4 and kind == "p3-plus-point" and gen.is_induced_p3_plus_point(g, quad),
                f"{kind} {quad} is not an induced P3 plus point")


def _verdict_dict(v):
    return {"c1": v.c1, "c1bv": v.c1bv, "c_infinity": v.c_infinity,
            "c_omega": v.c_omega, "circle_class": v.circle_class}


class Classify(Workload):
    """Graph files through load_graph -> classify -> witness, as `raagdyn witness`."""

    name = "classify"
    trace_cycles = 2

    def cycle(self, i):
        # p50 falls in the middle of eight G(48, 1/2) graphs, whose cost
        # varies little, with 16 cheaper and 16 dearer ops around them; p90
        # falls among four P4-substituted cliques with m = 16, whose cost
        # depends on m alone, under the m = 22 one and the threshold chains
        rng = self.rng(i)
        ops = []
        for n in (20, 30, 40, 60, 80, 100, 120, 160, 200, 240):  # level <= 3
            g, _, level = gen.cograph(rng, n, 3)
            ops.append(self._op(rng, f"cograph-{n}", g, level, True))
        for n in (12, 16, 20, 24, 28, 32, 36, 40, 64):  # deeper: P3 + point witness
            g, _, level = gen.cograph(rng, n, 8)
            ops.append(self._op(rng, f"deep-cograph-{n}", g, level, True))
        for n in (8, 12, 16, 20, 24) + (48,) * 8:
            ops.append(self._op(rng, f"gnp-{n}", gen.gnp(rng, n), None, None))
        for m in (10, 16, 16, 16, 16, 22):
            ops.append(self._op(rng, f"p4-cliques-{m}", gen.p4_cliques(rng, m), None, False))
        for n in (250, 400):  # either side of the recursion limit
            g, level, depth = gen.threshold(rng, n)
            known = {"RecursionError": DEEP_RECURSION} if depth >= 300 else None
            ops.append(self._op(rng, f"threshold-{n}", g, level, True, known))
        return ops

    def warmup(self):
        self.run_graph(gen.Graph(["x"]), "vertex x\n", 0, True)

    def _op(self, rng, kind, g, level, cograph, known=None):
        """cograph None: the truth is unknown (G(n,1/2)); the answer must certify itself."""
        text = g.edge_list(rng)
        return Op(kind, partial(self.run_graph, g, text, level, cograph), known)

    def run_graph(self, g, text, level, cograph):
        graph = load_graph(text)
        cls = classify(graph)
        nested = cls.cotree.to_nested() if cls.cotree is not None else None
        if cograph is None:
            cograph = cls.cograph
        summary = (cls.cograph, cls.level, _verdict_dict(cls.verdict), cls.p4_witness)
        level = _check_classification(g, level if cograph else None, cograph, summary, nested)
        if not cls.verdict.c1bv:
            w = witness(graph)
            _check_witness(g, level if cograph else None, w.kind, w.vertices)
        if self.counting and cls.cotree is not None:
            self._top("cotree_depth", _depth(cls.cotree))


def _depth(tree) -> int:
    depth, stack = 0, [(tree, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    return depth


# --- cli-mix -----------------------------------------------------------------


def _map_json(pts) -> str:
    """A circle map in the CLI's JSON form."""
    return json.dumps({"domain": "S1", "points": [[str(x), str(y)] for x, y in pts]})


def _word_text(rng: Random, syllables: int, max_exp: int) -> str:
    """A reduced word in the program's own canonical spelling."""
    out = []
    kind = rng.choice(("ab", "t"))
    for _ in range(syllables):
        if kind == "t":
            out.append(_power("t", rng.choice((-1, 1)) * rng.randint(1, max_exp)))
        else:
            m, n = 0, 0
            while (m, n) == (0, 0):
                m = rng.randint(-max_exp, max_exp) if rng.random() < 0.7 else 0
                n = rng.randint(-max_exp, max_exp) if rng.random() < 0.7 else 0
            out += [_power(g, e) for g, e in (("a", m), ("b", n)) if e]
        kind = "ab" if kind == "t" else "t"
    return " ".join(out)


def _power(g: str, e: int) -> str:
    return g if e == 1 else f"{g}^{e}"


class CliMix(Workload):
    """In-process `raagdyn` commands on files in a scratch directory."""

    name = "cli-mix"
    trace_cycles = 2

    def reset(self):
        super().reset()
        self.digests: dict[int, "hashlib._Hash"] = {}

    def cycle(self, i):
        rng = self.rng(i)
        ops = []
        words = [self._big_word(i)] + [_word_text(rng, rng.randint(1, 4), 3) for _ in range(2)]
        ops += self._realize(i, rng, "big", words)
        for tag in ("small", "small2"):
            words = [_word_text(rng, rng.randint(1, 6), 5) for _ in range(rng.randint(1, 4))]
            ops += self._realize(i, rng, tag, words)
        for k, (q_lo, q_hi) in enumerate(((2, 3), (4, 6), (7, 9))):  # rot's cost grows with q
            q = rng.randint(q_lo, q_hi)
            p = rng.randrange(q)
            path = self._file(i, f"rot{k}.json", _map_json(gen.periodic_circle_points(rng, p, q)))
            ops.append(self._op(i, "rot", ["rot", "--input", path], 0,
                                partial(self._rot_exact, F(p, q))))
        q = 67  # prime above --qmax 64: no periodic lift is found, bounds result
        p = rng.randrange(1, q)
        path = self._file(i, "rotb.json", _map_json(gen.periodic_circle_points(rng, p, q)))
        ops.append(self._op(i, "rot", ["rot", "--input", path], 0, partial(self._rot_bounds, F(p, q))))
        graphs = [
            (gen.cograph(rng, 12, 2)[0::2], True),
            (gen.cograph(rng, 18, 5)[0::2], True),
            ((gen.p4_cliques(rng, 2), None), False),
        ]
        for k, ((g, level), cograph) in enumerate(graphs):
            path = self._file(i, f"g{k}.txt", g.edge_list(rng))
            ops.append(self._op(i, "classify", ["classify", "--input", path], 0,
                                partial(self._classified, g, level, cograph)))
            obstructed = not cograph or level >= 4
            ops.append(self._op(i, "witness", ["witness", "--input", path], 0 if obstructed else 1,
                                partial(self._witnessed, g, level if cograph else None, obstructed)))
        seed = rng.randrange(1 << 16)
        ops.append(self._op(i, "verify-comm-supp", ["verify", "comm-supp", "--seed", str(seed),
                                                    "--samples", "20"], 0, partial(self._verified, 20)))
        ops.append(self._op(i, "verify-phi-supp", ["verify", "phi-supp", "--seed", str(seed),
                                                   "--samples", "10"], 0, partial(self._verified, 10)))
        good = json.loads(_map_json(gen.circle_points(rng, 2, False)))
        bad = {
            "points-int": json.dumps({"domain": "S1", "points": 5}),
            "zero-den": json.dumps({"domain": "S1", "points": [["0", "1/0"], ["1", "1"]]}),
            "top-list": json.dumps(good["points"]),
        }
        for tag, text in bad.items():
            path = self._file(i, f"bad-{tag}.json", text)
            ops.append(self._op(i, "rot", ["rot", "--input", path], 2, None, malformed=True))
        path = self._file(i, "bad-null.json", json.dumps({"maps": {"f": None, "g": good}}))
        ops.append(self._op(i, "verify-comm-supp", ["verify", "comm-supp", "--input", path], 2,
                            None, malformed=True))
        path = self._file(i, "bad-json.json", '{"domain": "S1", "points": [')
        ops.append(self._op(i, "rot", ["rot", "--input", path], 2, None))
        return ops

    def _big_word(self, i: int) -> str:
        """`a^e t` or `b^e t` with |e| near 10^4, where realize's cost is linear in e.

        A run draws four such words and cycles through them.  The program
        caches chain bumps, so memory grows with each new exponent; four per
        run keep peak memory independent of how many cycles the run gets.
        """
        rng = Random(f"{self.seed}:{self.name}:big:{i % 4}")
        e = rng.choice((-1, 1)) * (9900 + rng.randrange(100))
        return f"{rng.choice(('a', 'b'))}^{e} {_power('t', rng.choice((-1, 1)))}"

    def warmup(self):
        path = self._file(-1, "warm.json", _map_json([(F(0), F(1, 2)), (F(1), F(3, 2))]))
        self.call(-1, ["rot", "--input", path], 0)
        self.reset()

    def checks(self):
        """Cycle 0 run again must print the very same bytes (the --seed promise)."""
        first = self.digest(0)
        self.digests.pop(0, None)
        for op in self.cycle(0):
            try:
                op.run()
            except Exception:  # failures were counted when the cycle was timed
                pass
        return [(f"stdout-replay-sha256:{first}", first == self.digest(0))]

    def _file(self, i: int, name: str, text: str) -> str:
        path = os.path.join(self.tmp, f"c{i}-{name}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _op(self, i, kind, argv, rc, check, malformed=False):
        known = {"TypeError": MALFORMED, "ZeroDivisionError": MALFORMED} if malformed else None
        return Op(kind, partial(self._run, i, argv, rc, check), known)

    def _run(self, i, argv, rc, check):
        text = self.call(i, argv, rc)
        if check is not None:
            check(text)

    def call(self, i: int, argv: list[str], want_rc: int) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as e:
                rc = e.code
        text = out.getvalue()
        data = text.encode()
        self.digests.setdefault(i, hashlib.sha256()).update(data)
        self.raw["stdout_bytes"] += len(data)
        _expect(rc == want_rc, f"exit code {rc}, expected {want_rc}")
        return text

    def digest(self, i: int) -> str:
        return self.digests[i].hexdigest() if i in self.digests else ""

    def _realize(self, i, rng, tag, words):
        src = self._file(i, f"words-{tag}.txt", "\n".join(words) + "\n")
        bundle = os.path.join(self.tmp, f"c{i}-bundle-{tag}.json")
        return [
            self._op(i, "realize", ["realize", "--input", src], 0,
                     partial(self._realized, words, bundle)),
            self._op(i, "verify-action", ["verify", "action", "--input", bundle], 0,
                     partial(self._action_verified, len(words))),
        ]

    @staticmethod
    def _realized(words, bundle, text):
        doc = json.loads(text)
        _expect(doc["words"] == words, f"bundle words {doc['words']} != {words}")
        n = len(words)
        wits = [F(w) for w in doc["witnesses"]]
        _expect(all(F(k, n + 1) < x < F(k + 1, n + 1) for k, x in enumerate(wits)),
                "witness points outside their blocks")
        with open(bundle, "w", encoding="utf-8") as fh:  # as `> bundle.json` would
            fh.write(text)

    @staticmethod
    def _action_verified(n, text):
        doc = json.loads(text)
        _expect(doc["passed"] and doc["detail"] == {"words": n, "moved": n, "stuck": 0},
                f"action bundle not verified: {doc['detail']}")

    @staticmethod
    def _rot_exact(rot, text):
        res = json.loads(text)["result"]
        _expect(res == {"kind": "exact", "value": str(rot)}, f"rotation {res} != {rot}")

    @staticmethod
    def _rot_bounds(rot, text):
        res = json.loads(text)["result"]
        _expect(res["kind"] == "bounds" and F(res["lo"]) <= rot <= F(res["hi"]),
                f"bounds {res} miss {rot}")

    def _classified(self, g, level, cograph, text):
        doc = json.loads(text)
        summary = (doc["cograph"], doc["level"], doc["verdict"],
                   tuple(doc["p4_witness"]) if doc["p4_witness"] else None)
        _check_classification(g, level, cograph, summary, doc["cotree"])
        if self.counting and doc["cotree"] is not None:
            self._top("cotree_depth", gen.cotree_depth(doc["cotree"]))

    @staticmethod
    def _witnessed(g, level, obstructed, text):
        doc = json.loads(text)
        if obstructed:
            w = doc["witness"]
            _check_witness(g, level, w["kind"], tuple(w["vertices"]))
        else:
            _expect(doc["error"]["type"] == "NotApplicable", "smoothable graph got a witness")

    @staticmethod
    def _verified(samples, text):
        doc = json.loads(text)
        _expect(doc["passed"] and doc["detail"] == {"samples": samples, "failures": 0},
                f"checker reported {doc['detail']}")


WORKLOADS = {w.name: w for w in (SepEnum, PLProps, Classify, CliMix)}
