"""Which functions under ``src/repro`` no non-test entry point calls.

Runs each entry point in ``ENTRY_POINTS`` in its own interpreter under
``sys.setprofile``, waiting for one before starting the next, and records
every code object under ``src/repro`` that received a ``call`` event.  Then
it prints every ``def`` (found with ``ast``) that none of the runs called,
and their count.

It is a report, not a gate: many of the functions it lists are kept on
purpose (error paths, the reference decoders the runs answer by lookup,
``simtest shrink``, the developer API), and a count only means something
next to the list.  The whole report takes about 70 s on a 2-vCPU host
(Python 3.11)::

    python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Arguments to ``python``; every run starts in one scratch directory, so
#: the traced fig12 run leaves ``smoke.jsonl`` where the trace CLI reads it.
#: The profile hook slows the scale gate about 1.8x, so on a slow host its
#: throughput floor can fail and list it as a failed entry point; both its
#: runs finish, and are recorded, before it checks the floor.
ENTRY_POINTS = [
    *(
        [str(ROOT / "benchmarks/e2e/child.py"), "--workload", name, "--seed", "0",
         "--scale", "0.2"]
        for name in ("city-rush", "flash-day", "paper-figs", "swarm")
    ),
    ["-m", "repro.experiments.runner", "all", "--max-n", "4"],
    ["-m", "repro.experiments.runner", "fig12", "--max-n", "2", "--trace", "smoke.jsonl"],
    ["-m", "repro.telemetry.cli", "validate", "smoke.jsonl"],
    ["-m", "repro.telemetry.cli", "chrome", "smoke.jsonl", "-o", "smoke.json"],
    ["-m", "repro.telemetry.cli", "validate", "smoke.json"],
    ["-m", "repro.telemetry.cli", "summary", "smoke.jsonl", "--top", "5"],
    ["-m", "repro.telemetry.cli", "critical-path", "smoke.jsonl"],
    [str(ROOT / "benchmarks/bench_scale.py")],
    ["-m", "repro.simtest.cli", "run", "--seeds", "200"],
    ["-m", "repro.simtest.cli", "replay", "3"],
    *([str(path)] for path in sorted((ROOT / "examples").glob("*.py"))),
]

# Runs one entry point under the profile hook, then writes the
# ``[file, first line]`` of every called code object under src/repro.
_CHILD = r"""
import json, os, runpy, sys
out, src, args = sys.argv[1], sys.argv[2], sys.argv[3:]
seen = {}

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen[id(code)] = code

sys.argv = args[1:] if args[0] == "-m" else args
sys.setprofile(hook)
try:
    if args[0] == "-m":
        runpy.run_module(args[1], run_name="__main__", alter_sys=True)
    else:
        sys.path.insert(0, os.path.dirname(args[0]))
        runpy.run_path(args[0], run_name="__main__")
except SystemExit as exc:
    status = exc.code
else:
    status = 0
finally:
    sys.setprofile(None)
    with open(out, "w") as fh:
        json.dump(
            [[c.co_filename, c.co_firstlineno] for c in seen.values()
             if c.co_filename.startswith(src)],
            fh,
        )
sys.exit(status)
"""


def defined_functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every ``def``.

    The first line is a decorated function's first decorator, as in its
    code object's ``co_firstlineno``.
    """
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[(str(path), first)] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return found


def called_functions() -> tuple[set[tuple[str, int]], list[str]]:
    """Every ``(file, first line)`` some entry point called, and the failures."""
    called: set[tuple[str, int]] = set()
    failures = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out = os.path.join(scratch, "called.json")
        for args in ENTRY_POINTS:
            shown = " ".join(Path(a).name if a.startswith(str(ROOT)) else a for a in args)
            print(f"running {shown}", file=sys.stderr, flush=True)
            status = subprocess.run(
                [sys.executable, "-c", _CHILD, out, str(SRC), *args],
                cwd=scratch,
                env=env,
                stdout=subprocess.DEVNULL,
            ).returncode
            if status != 0:
                failures.append(f"{shown} (exit status {status})")
            with open(out, encoding="utf-8") as fh:
                called.update((name, line) for name, line in json.load(fh))
    return called, failures


def main() -> int:
    defined = defined_functions()
    called, failures = called_functions()
    never = sorted(set(defined) - called)
    for path, line in never:
        print(f"{Path(path).relative_to(ROOT)}:{line} {defined[(path, line)]}")
    print(f"{len(never)} of {len(defined)} defs under src/repro never called")
    for failure in failures:
        print(f"entry point failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
