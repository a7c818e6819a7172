"""The benchmark's own test.

    python3 perfbench/selfcheck.py [WORKLOAD ...]

Run from the root of a source checkout.  Checks that

- each workload's inputs are the same for one seed and differ across seeds;
- every input seeds 0-99 can issue is in ``reference.json``, with the same
  digest;
- two traced runs of one seed (``run.py --trace 1``) pass their output checks
  and agree exactly on every per-layer count: each ``.calls`` and
  ``.errors``, ``.max_rows``, ``.input_cells`` and ``.max_dim``.

Exits 1 if any check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from check import Checker, input_digest
from workloads import WORKLOADS, op_list

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def generation_errors(workload: str) -> list[str]:
    def listing(seed: int) -> list[str]:
        warmup, ops = op_list(workload, seed, ROOT)
        return [input_digest(op) for op in [warmup, *ops]]

    errors = []
    if listing(SEED) != listing(SEED):
        errors.append("one seed gave two different op lists")
    if listing(SEED) == listing(SEED + 1):
        errors.append("two seeds gave the same op list")
    entries = Checker(set()).entries
    for seed in range(100):
        warmup, ops = op_list(workload, seed, ROOT)
        for op in [warmup, *ops]:
            entry = entries.get(op.key)
            if entry is None or entry["input"] != input_digest(op):
                errors.append(f"seed {seed}: {op.key} is not in the reference")
    return errors


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def count_errors(workload: str) -> list[str]:
    first, second = traced(workload), traced(workload)
    errors = [f"run {i} failed its output checks"
              for i, r in enumerate((first, second), 1) if not r["correct"]]
    for name, m in first["metrics"].items():
        if m["unit"] == "count" and m["value"] != second["metrics"][name]["value"]:
            errors.append(f"{name}: {m['value']} then {second['metrics'][name]['value']}")
    return errors


def main() -> int:
    workloads = sys.argv[1:] or list(WORKLOADS)
    failed = False
    for workload in workloads:
        for check in (generation_errors, count_errors):
            errors = check(workload)
            failed = failed or bool(errors)
            print(f"{'FAIL' if errors else 'PASS'} {workload} {check.__name__[:-7]}")
            for error in errors:
                print(f"  {error}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
