"""Diff the reports of two source trees over every benchmark pool op.

    python3 tools/report_diff.py OLD_ROOT NEW_ROOT [--op KEY ...]

Runs each op of ``perfbench.workloads.pool_ops`` (every ``run`` and
``compare`` any benchmark seed can issue) once per tree, each tree in its own
``python`` process that imports ``polyhardy`` from that tree's ``src/``. The
op list and scenario files come from this checkout's ``perfbench/``; the
scenario files and reports go to a temporary directory. Each report is
reduced to its ``reporting.stable_part``. Prints

- every op whose exit code, or whose ``dim``, ``n_safe_columns``,
  ``certified``, ``certified_dims``, ``flags``, ``verdict`` or ``verdicts``
  entry, differs;
- the largest absolute difference under each other key of the stable part,
  with each ``{shape, index, re, im}`` matrix decoded, and the op it is on;
- the matrices whose nonzero pattern moved.

``--op`` keeps only the ops with the given keys (``run:<label>``,
``compare:<a>/<b>``). Exits 1 if an answer differs, else 0.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANSWER_KEYS = frozenset(
    {"dim", "n_safe_columns", "certified", "certified_dims", "flags", "verdict", "verdicts"}
)
MATRIX_KEYS = {"shape", "index", "re", "im"}


def collect() -> None:
    """Worker: run the ops read from stdin with the ``polyhardy`` on the
    path, and print each op's exit code and stable report as one JSON
    object keyed by op."""
    from polyhardy.cli import main
    from polyhardy.reporting import stable_part

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for op in json.load(sys.stdin):
            files = []
            for k, s in enumerate(op["scenarios"]):
                files.append(Path(tmp) / f"{k}.json")
                files[-1].write_text(json.dumps(s))
            out.unlink(missing_ok=True)
            code = main([op["command"], *map(str, files), "--quiet", "--output", str(out)])
            report = stable_part(json.loads(out.read_text())) if out.exists() else None
            results[op["key"]] = {"exit": code, "report": report}
    json.dump(results, sys.stdout)


def reports(tree: Path, ops: list[dict]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, __file__, "--collect"],
        input=json.dumps(ops), env=env, capture_output=True, text=True, cwd=tree,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: worker failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def _matrix(entry: dict) -> tuple[tuple[int, ...], dict[int, complex]]:
    values = {i: complex(re, im) for i, re, im in zip(entry["index"], entry["re"], entry["im"])}
    return tuple(entry["shape"]), values


class Diff:
    def __init__(self) -> None:
        self.answers: list[str] = []
        self.largest: dict[str, tuple[float, str]] = {}
        self.moved: list[str] = []

    def _note(self, key: str, value: float, where: str) -> None:
        if value > self.largest.get(key, (-1.0, ""))[0]:
            self.largest[key] = (value, where)

    def walk(self, old, new, key: str, where: str) -> None:
        """Compare two stable-part subtrees; ``key`` is the dotted path of
        dict keys down to them, without list indices."""
        if key.rpartition(".")[2] in ANSWER_KEYS:
            if old != new:
                self.answers.append(f"{where}: {json.dumps(old)} -> {json.dumps(new)}")
        elif isinstance(old, dict) and set(old) == MATRIX_KEYS and isinstance(new, dict):
            (shape, a), (shape_new, b) = _matrix(old), _matrix(new)
            if shape != shape_new:
                self.answers.append(f"{where}: shape {list(shape)} -> {list(shape_new)}")
                return
            if set(a) != set(b):
                self.moved.append(where)
            diff = max((abs(a.get(i, 0) - b.get(i, 0)) for i in set(a) | set(b)), default=0.0)
            self._note(key, diff, where)
        elif isinstance(old, dict) and isinstance(new, dict) and set(old) == set(new):
            for k in sorted(old):
                self.walk(old[k], new[k], f"{key}.{k}".lstrip("."), f"{where}.{k}")
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (a, b) in enumerate(zip(old, new)):
                self.walk(a, b, key, f"{where}[{i}]")
        elif _number(old) and _number(new):
            self._note(key, abs(old - new) if old != new else 0.0, where)
        elif old != new:
            self.answers.append(f"{where}: {json.dumps(old)} -> {json.dumps(new)}")


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def main() -> int:
    if sys.argv[1:] == ["--collect"]:
        collect()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--op", action="append", default=[], help="keep only this op key")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import pool_ops

    ops = [
        {"key": op.key, "command": op.command, "scenarios": list(op.scenarios)}
        for op in pool_ops(ROOT)
        if not args.op or op.key in args.op
    ]
    missing = set(args.op) - {op["key"] for op in ops}
    if missing:
        raise SystemExit(f"no pool op {sorted(missing)}")
    old, new = reports(args.old.resolve(), ops), reports(args.new.resolve(), ops)
    diff = Diff()
    for op in ops:
        key = op["key"]
        a, b = old[key], new[key]
        if a["exit"] != b["exit"]:
            diff.answers.append(f"{key}: exit {a['exit']} -> {b['exit']}")
        diff.walk(a["report"], b["report"], "", key)
    runs = sum(op["command"] == "run" for op in ops)
    print(f"{len(ops)} ops ({runs} run, {len(ops) - runs} compare): {args.old} -> {args.new}")
    print(f"answers that differ: {len(diff.answers)}")
    for line in diff.answers:
        print(f"  {line}")
    moved = {key: item for key, item in sorted(diff.largest.items()) if item[0] > 0}
    print(f"largest absolute difference per key ({len(diff.largest) - len(moved)} keys equal):")
    for key, (value, where) in moved.items():
        print(f"  {key}: {value:.3g} ({where})")
    print(f"matrices whose nonzero pattern moved: {len(diff.moved)}")
    for where in diff.moved:
        print(f"  {where}")
    return 1 if diff.answers else 0


if __name__ == "__main__":
    sys.exit(main())
