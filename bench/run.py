"""raagdyn benchmark: four seeded closed-loop workloads, one client, one thread.

Run from the repository root:

    python3 bench/run.py --workload sep-enum --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
from a separate cProfile run.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
NAMES = ("sep-enum", "pl-props", "classify", "cli-mix")
SETUP_RUNS = 9


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "raagdyn", "__init__.py")):
        sys.exit(f"bench: no raagdyn sources under {SRC}")
    sys.path.insert(0, SRC)
    import raagdyn

    if not os.path.abspath(raagdyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported raagdyn from {raagdyn.__file__}, not {SRC}")


def _scratch() -> str:
    path = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(path)
    return path


def _drop_scratch(path: str):
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses it


# Fresh-interpreter starts are paced by a start of their own rather than by
# harness.host_pace: a start that imports only standard modules (none of
# raagdyn, so a change to the program cannot move it), run just before and
# just after each measured start.  On the 2-core test machine this cut the
# spread of ten set-up medians from 0.28 (as read) to 0.035; scaling by
# harness.host_pace made it worse than as read.
START_PROBE = ("import argparse, dataclasses, fractions, inspect, json, pathlib, "
               "random, statistics")
REF_START_S = 0.07  # close to the start probe's fastest time on the test machine


def setup_seconds(name: str) -> tuple[float, float, float]:
    """Median set-up time of a fresh interpreter importing raagdyn and warming up.

    Returns it scaled to the reference start pace, as read, and the median
    start probe as read.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child", "--workload", name]
    probe = [sys.executable, "-c", START_PROBE]

    def timed(argv) -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    timed(cmd)  # fills the bytecode cache, so every measured start is alike
    probes = [timed(probe)]
    starts = []
    for _ in range(SETUP_RUNS):
        starts.append(timed(cmd))
        probes.append(timed(probe))
    scaled = [t * REF_START_S / ((a + b) / 2) for t, a, b in zip(starts, probes, probes[1:])]
    return statistics.median(scaled), statistics.median(starts), statistics.median(probes)


def stamp(args) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "raagdyn")
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), "rb") as fh:
                digest.update(fn.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unavailable (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": [args.workload],
    }


def run_one(args) -> dict:
    import harness
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup = (None,) * 3 if args.trace else setup_seconds(args.workload)
    setup_s, setup_unscaled, start_probe = setup
    tmp = _scratch()
    notes = {}
    try:
        wl = cls(args.seed, tmp)
        wl.warmup()
        if args.trace:
            tally, metrics, drift = harness.trace_run(wl, cls.trace_cycles)
            checks = [("trace-counts-repeat", not drift)]
            notes["determinism_drift"] = drift
            notes["cycles"] = cls.trace_cycles
            units = dict(harness.per_layer_names())
            shown = {k: (v, units[k]) for k, v in metrics.items()}
        else:
            tally, notes["cycles"] = harness.measure(wl, args.seconds)
            notes["host_pace_ms"] = {
                "reference": harness.REF_PACE_S * 1e3,
                "min": min(tally.paces) * 1e3,
                "median": statistics.median(tally.paces) * 1e3,
                "max": max(tally.paces) * 1e3,
            }
            notes["unscaled"] = {k: v for k, (v, _) in harness.end_to_end(tally.latencies).items()}
            notes["unscaled"]["setup_s"] = setup_unscaled
            notes["start_probe_s"] = {"reference": REF_START_S, "median": start_probe}
            checks = []
            shown = {"setup_s": (setup_s, "s")}
            shown.update(harness.end_to_end(tally.scaled()))
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            shown["peak_rss_mb"] = (rss, "MB")
        checks += wl.checks()
    finally:
        _drop_scratch(tmp)

    # whole-run checks count as attempted, and a failed one as failed
    notes["checks"] = dict(checks)
    failed_checks = sum(not ok for _, ok in checks)
    attempted = len(tally.latencies) + len(checks)
    failed = tally.failed + failed_checks
    known = sum(tally.known.values())
    lat = tally.latencies
    p90 = harness.quantile(sorted(lat), 0.9)
    notes["samples"] = len(lat)
    notes["samples_beyond_p90"] = sum(1 for x in lat if x > p90)
    print(f"[{args.workload}] seed={args.seed} trace={args.trace} cycles={notes['cycles']} "
          f"samples={len(lat)} beyond_p90={notes['samples_beyond_p90']} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f} "
          f"known_defect_ops={known}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for row in tally.failure_rows():
        print(f"  failure: {row}")
    for row in tally.known_rows():
        print(f"  known defect: {row}")
    for name, ok in checks:
        print(f"  check {'pass' if ok else 'FAIL'}: {name}")
    report = {
        "stamp": stamp(args),
        "fail_ratio": failed / attempted,
        "failures": tally.failure_rows(),
        "known_defect_ops": known,
        "known_defects": tally.known_rows(),
        **notes,
    }
    print("report " + json.dumps(report, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit(f"bench: workload {name} exited with {out.returncode}")
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    return total


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _import_program()
    if args.setup_child:
        import workloads

        tmp = _scratch()
        try:
            workloads.WORKLOADS[args.workload](0, tmp).warmup()
        finally:
            _drop_scratch(tmp)
        return
    sys.setrecursionlimit(1000)  # the interpreter default, whatever the host sets
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
