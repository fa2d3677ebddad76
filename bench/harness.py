"""Closed-loop timing, failure accounting and the traced per-layer run.

One client, one thread: each op starts when the previous one has returned.
Only op execution is timed; input generation between cycles is not.
"""

from __future__ import annotations

import cProfile
import importlib
import math
import pstats
import time
from array import array
from collections import Counter
from fractions import Fraction

from workloads import COUNTERS, Mismatch

# Layers the traced run reports, as <module>.<function>, and the function
# each names; a cli.<subcommand> row names the handler that subcommand runs.
LAYERS = {name: name for name in (
    "actions.plan_separating_action",
    "actions.plan_apply_word",
    "actions.materialize_plan",
    "actions.build_separating_action",
    "actions.ActionAssignment.validate",
    "actions.evaluate_word_at",
    "plmaps.commutator",
    "plmaps.compose",
    "plmaps.invert",
    "plmaps.power",
    "plmaps.rotation_number",
    "plmaps.PLMapInterval.support",
    "intervals.IntervalSet.intersection",
    "checks.check_commutator_support",
    "checks.check_phi_support",
    "lamplighter.lamplighter_certificate",
    "graphs.load_graph",
    "cotree.classify",
    "cotree.witness",
)} | {
    "cli.realize": "cli.cmd_realize",
    "cli.verify-action": "cli._verify_action",
    "cli.verify-comm-supp": "cli._verify_comm_supp",
    "cli.verify-phi-supp": "cli._verify_phi_supp",
    "cli.rot": "cli.cmd_rot",
    "cli.classify": "cli.cmd_classify",
    "cli.witness": "cli.cmd_witness",
}
LAYER_STATS = (("calls", "count"), ("self_s", "s"), ("share", "ratio"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{layer}.{stat}", unit) for layer in LAYERS for stat, unit in LAYER_STATS]
    names += list(COUNTERS.items())
    names.append(("defects.known_ops", "count"))
    names.append(("trace.overhead_ratio", "ratio"))
    return names


# The host this runs on is shared with other tenants: a fixed probe takes
# from 1x to over 3x its best time, in spells from a fraction of a second
# to minutes.  Every op is therefore timed next to the probe and its time
# scaled to the pace at which the probe runs in REF_PACE_S.  The probe
# touches nothing of raagdyn, so only the machine can move it.
REF_PACE_S = 2.0e-4  # close to the probe's fastest time on the 2-core test machine
PROBE_EVERY_S = 0.01  # op time between two probes


def host_pace() -> float:
    """Seconds for the fixed probe, best of two: how fast the host runs now.

    The probe mixes what the workloads spend their time on, Fraction
    arithmetic, a dict keyed by strings and a sort, so that it slows down
    with the host about as much as they do.
    """
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 40):
            acc += Fraction(k, 2 * k + 1)
        table = {f"v{i}": (i, i * i) for i in range(300)}
        sorted(table, key=lambda v: table[v][1] % 97)
        best = min(best, time.perf_counter() - t0)
    return best


class Tally:
    """Latencies and failures of one pass.

    With `paced`, the host pace is probed between ops (outside their timing)
    every PROBE_EVERY_S of op time, and each op records the mean of the two
    probes around it.
    """

    def __init__(self, paced: bool = False):
        self.latencies = array("d")
        self.paces = array("d")
        self.paced = paced
        self.failures: Counter = Counter()  # (op kind, error type)
        self.known: Counter = Counter()  # (op kind, error type, defect): catalogued defects

    def run(self, ops):
        lat = self.latencies
        clock = time.perf_counter
        pace = host_pace() if self.paced else 1.0
        since, unpaced = 0.0, 0
        for op in ops:
            error = None
            t0 = clock()
            try:
                op.run()
            except Mismatch:
                error = "WrongAnswer"
            except Exception as e:  # any escape from the program is a failed op
                error = type(e).__name__
            dt = clock() - t0
            lat.append(dt)
            if error in op.known:
                self.known[(op.kind, error, op.known[error])] += 1
            elif error is not None:
                self.failures[(op.kind, error)] += 1
            since += dt
            unpaced += 1
            if since >= PROBE_EVERY_S:
                pace = self._probe(pace, unpaced)
                since, unpaced = 0.0, 0
        if unpaced:
            self._probe(pace, unpaced)

    def _probe(self, before: float, n: int) -> float:
        after = host_pace() if self.paced else 1.0
        self.paces.extend([(before + after) / 2] * n)
        return after

    def scaled(self) -> list[float]:
        """Each op's time at the reference host pace."""
        return [x * REF_PACE_S / p for x, p in zip(self.latencies, self.paces)]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def failure_rows(self) -> list[dict]:
        return [
            {"op": kind, "error": err, "count": n}
            for (kind, err), n in sorted(self.failures.items())
        ]

    def known_rows(self) -> list[dict]:
        return [
            {"op": kind, "error": err, "known_defect": defect, "count": n}
            for (kind, err, defect), n in sorted(self.known.items())
        ]


def measure(workload, seconds: float) -> tuple[Tally, int]:
    """Whole cycles until `seconds` of op time have run; returns (tally, cycles)."""
    tally = Tally(paced=True)
    cycles = 0
    busy = 0.0
    while busy < seconds:
        tally.run(workload.cycle(cycles))
        cycles += 1
        busy = math.fsum(tally.latencies)
    return tally, cycles


def end_to_end(latencies: list[float]) -> dict:
    lat = sorted(latencies)
    return {
        "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "op_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
    }


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive method)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# --- traced run ----------------------------------------------------------------


def _profile_key(path: str):
    """cProfile's key (file, first line, name) for raagdyn.<path>."""
    module, *attrs = path.split(".")
    obj = importlib.import_module(f"raagdyn.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    code = obj.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def traced(workload, n_cycles: int) -> tuple[Tally, dict, dict, float]:
    """Run the first cycles under cProfile; returns (tally, layers, counters, wall)."""
    workload.reset()
    workload.counting = True
    cycles = [workload.cycle(i) for i in range(n_cycles)]
    prof = cProfile.Profile()
    tally = Tally()
    prof.enable()
    try:
        for ops in cycles:
            tally.run(ops)
    finally:
        prof.disable()
        workload.counting = False
    wall = math.fsum(tally.latencies)
    return tally, layer_stats(pstats.Stats(prof).stats, wall), workload.counters(), wall


def layer_stats(stats: dict, wall: float) -> dict:
    """calls, self_s and share for each layer from cProfile's call graph.

    A layer's self time is its cumulative time less the time of other layers
    it calls.  Layers reached through unlisted helpers are found by walking
    the callee graph, giving each helper's time to its callers in proportion
    to the time they spent calling it.
    """
    keys = {name: _profile_key(path) for name, path in LAYERS.items()}
    listed = set(keys.values())
    callees: dict = {}
    for fn, (_, _, _, _, callers) in stats.items():
        for caller, (_, _, _, ct) in callers.items():
            callees.setdefault(caller, {})[fn] = ct

    def nested_layer_time(root) -> float:
        total = 0.0
        stack = [(root, 1.0, 0)]
        while stack:
            fn, frac, depth = stack.pop()
            for child, ct in callees.get(fn, {}).items():
                if child == fn or child == root:
                    continue
                part = frac * ct
                if child in listed:
                    total += part
                elif depth < 12 and stats[child][3] > 0:
                    stack.append((child, part / stats[child][3], depth + 1))
        return total

    out = {}
    for name, key in keys.items():
        if key in stats:
            _, nc, _, ct, _ = stats[key]
            self_s = max(0.0, ct - nested_layer_time(key))
        else:
            nc, self_s = 0, 0.0
        out[f"{name}.calls"] = nc
        out[f"{name}.self_s"] = self_s
        out[f"{name}.share"] = self_s / wall if wall else 0.0
    return out


def trace_run(workload, n_cycles: int) -> tuple[Tally, dict, list[str]]:
    """Untraced pass, then two traced passes over the same cycles.

    Each pass generates the cycles afresh from the seed, so it starts from
    the same inputs and empty per-cycle state.  Returns the first traced
    tally, the per-layer metrics, and the names of counts that differed
    between the two traced passes (the determinism check).
    """
    workload.reset()
    plain = Tally()
    for i in range(n_cycles):
        plain.run(workload.cycle(i))
    plain_wall = math.fsum(plain.latencies)
    first, layers, counts, wall = traced(workload, n_cycles)
    second, layers2, counts2, _ = traced(workload, n_cycles)
    drift = [
        k for k in layers
        if k.endswith(".calls") and layers[k] != layers2[k]
    ] + [k for k in counts if counts[k] != counts2[k]]
    if first.failures != second.failures or first.known != second.known:
        drift.append("failures")
    metrics = dict(layers)
    metrics.update(counts)
    metrics["defects.known_ops"] = sum(first.known.values())
    metrics["trace.overhead_ratio"] = wall / plain_wall
    return first, metrics, drift
