"""Line-coverage gate: run Tier-1 and fail on any line of src/raagdyn/ that no test reaches.

Standard library only; needs Python 3.12 or later for `sys.monitoring`.  From
the repository root:

    PYTHONPATH=src python tests/coverage_gate.py [extra pytest arguments]

It runs pytest in this process with the Tier-1 arguments and
`--hypothesis-seed=0`, so the verdict is reproducible; extra arguments are
passed on (a later `--hypothesis-seed` wins).  A LINE callback records each
line the first time it runs and then disables itself there, so the tracing
costs little.  The executable lines of a module are the lines of its compiled
code objects.  Two kinds are exempt:

- every line of a `raise AssertionError(...)` statement: an internal
  invariant, unreachable by design;
- the body of `if __name__ == "__main__":`, which only a separate process runs.

Every other unreached line is printed as `module.py:line: source`, and the
gate exits 1.  If a test fails, it exits with pytest's code.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src" / "raagdyn"
TIER1_ARGS = ["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]
# (module file name, line) -> why the line may stay unreached; each entry is a
# loosening of the gate
ALLOWLIST: dict[tuple[str, int], str] = {}


def executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def _is_main_guard(node) -> bool:
    test = node.test
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name) and test.left.id == "__name__"
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value == "__main__"
    )


def exempt_lines(tree) -> set[int]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                spans.append((node.lineno, node.end_lineno))
    for node in tree.body:
        if isinstance(node, ast.If) and _is_main_guard(node):
            spans.append((node.body[0].lineno, node.body[-1].end_lineno))
    return {line for first, last in spans for line in range(first, last + 1)}


def unreached(path: Path, hit: set[int]) -> list[str]:
    """`module.py:line: source` for each line of `path` outside `hit` and the exemptions."""
    source = path.read_text()
    missing = executable_lines(compile(source, str(path), "exec")) - hit
    missing -= exempt_lines(ast.parse(source))
    text = source.splitlines()
    return [f"{path.name}:{line}: {text[line - 1].strip()}"
            for line in sorted(missing) if (path.name, line) not in ALLOWLIST]


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        sys.exit("coverage_gate.py needs Python 3.12 or later (sys.monitoring)")
    mon = sys.monitoring
    prefix = str(SRC) + os.sep
    hit: dict[str, set[int]] = {}  # real path -> lines reached
    # co_filename -> its set in `hit`, or None for a file outside src/raagdyn/
    sets: dict[str, set[int] | None] = {}

    def on_line(code, line):
        name = code.co_filename
        if name not in sets:
            real = os.path.realpath(name)
            sets[name] = hit.setdefault(real, set()) if real.startswith(prefix) else None
        if sets[name] is not None:
            sets[name].add(line)
        return mon.DISABLE

    tool = mon.COVERAGE_ID
    mon.use_tool_id(tool, "coverage_gate")
    mon.register_callback(tool, mon.events.LINE, on_line)
    mon.set_events(tool, mon.events.LINE)
    import pytest  # imported under the callback, like everything the tests import

    try:
        rc = pytest.main([*TIER1_ARGS, *argv])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)

    misses = [m for path in sorted(SRC.glob("*.py")) for m in unreached(path, hit.get(str(path), set()))]
    print(*misses, f"coverage gate: {len(misses)} unreached line(s) under src/raagdyn/", sep="\n")
    if rc != 0:
        return int(rc)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
