"""Write BENCH_<TAG>.json: the report timing of a fixed ladder of grades.

    python3 tools/bench_ladder.py TAG [--case LABEL ...] [--out DIR]

Run from the root of a source checkout. Each ladder case runs in three
fresh ``python -m polyhardy.cli run`` processes, so every peak RSS is that
case's own; one untimed run of the first case goes before them. Each row
holds the case's grade and generators, the exit code, the median over the
three runs of each entry of the report's ``timing`` block (seconds,
per-step and per-verify-check seconds, ``grade_dims`` with ``probe`` and
``wold_kept``, and ``peak_rss_mb``), and ``wall_s``, the median wall
seconds of the three processes. The report's ``seconds`` stop before the
report is encoded and written; ``wall_s`` also counts that, and the
interpreter's start and imports. One run of a case can read twice the
seconds of the next on the same tree; the median of three does not follow
one slow run.
The file also records the environment as perfbench records it: nproc,
Python, numpy and scipy versions, and the OpenBLAS thread count, read
without changing it.

The ladder: every scenario file in ``scenarios/``, then generated cases
(``z - z1, ..., z - zn`` at growing n and caps, one dense generic linear
form at n=3 d_E=2, the inhomogeneous ``2 + z1`` and the inhomogeneous pair
``1 + z - z1, z - z2`` at n=2), then one ``compare`` rung,
``n2-D5-compare``: ``polyhardy compare`` of the ``n2-D5`` case against
the same case with its generators in reverse order, three processes like
every case. Its row holds the exit code, the certificate's verdict, the
certified dims and ``wall_s``; a compare report has no ``timing`` block.
``--case`` keeps only the named cases; ``--out`` sets the directory the
file is written to (default: the checkout root).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import environment  # noqa: E402  the env record perfbench prints


def _z_minus_zi(n: int) -> list[str]:
    """``z - z1, ..., z - zn``."""
    return [f"z - z{i}" for i in range(1, n + 1)]


# (label, n, D = N, d_E, generators)
GENERATED = [
    ("n1-D10", 1, 10, 1, _z_minus_zi(1)),
    ("n1-D6-dE2", 1, 6, 2, _z_minus_zi(1)),
    ("n2-D5", 2, 5, 1, _z_minus_zi(2)),
    ("n2-D6", 2, 6, 1, _z_minus_zi(2)),
    ("n2-D8", 2, 8, 1, _z_minus_zi(2)),
    ("n3-D3", 3, 3, 1, _z_minus_zi(3)),
    ("n3-D4", 3, 4, 1, _z_minus_zi(3)),
    ("n4-D3", 4, 3, 1, _z_minus_zi(4)),
    # one dense generic linear form: perfbench/workloads.py's
    # _homogeneous_form(random.Random(5), 3, 1, 2), written out
    ("n3-D3-dense-dE2", 3, 3, 2, [
        "(-0.058-1.121i)*z3 + (1.211-0.458i)*z3*e_1 + (1.095-0.581i)*z2"
        " + (-0.517+0.113i)*z2*e_1 + (-0.856-1.162i)*z1 + (1.061+0.915i)*z1*e_1"
        " + (0.021+0.969i)*z + (-0.933-0.468i)*z*e_1"
    ]),
    # inhomogeneous generators: they take the margin path, and their Wold
    # check factors the pattern blocks of the Wold grade
    ("two-plus-z1", 1, 5, 1, ["2 + z1"]),
    ("n2-D4-inhom", 2, 4, 1, ["1 + z - z1", "z - z2"]),
]


# generated cases that also get a compare rung, against their reversed generators
COMPARED = ["n2-D5"]


def ladder() -> list[dict]:
    cases = [json.loads(p.read_text()) for p in sorted((ROOT / "scenarios").glob("*.json"))]
    for label, n, cap, d_e, generators in GENERATED:
        cases.append({
            "label": label,
            "grade": {"n": n, "D": cap, "N": cap, "d_E": d_e},
            "generators": generators,
            "options": {"force": True, "margin": 2},
        })
    for case in [c for c in cases if c["label"] in COMPARED]:
        cases.append({**case, "label": f"{case['label']}-compare", "command": "compare"})
    return cases


SAMPLES = 3  # fresh processes per case; each timing entry is their median


def median_timing(timings: list):
    """The entry-by-entry median of equally shaped ``timing`` blocks."""
    if isinstance(timings[0], dict):
        return {key: median_timing([t[key] for t in timings]) for key in timings[0]}
    return statistics.median(timings)


def run_case(case: dict, tmp: Path, samples: int = SAMPLES) -> dict:
    command = case.get("command", "run")
    scenario = {k: v for k, v in case.items() if k != "command"}
    inputs = [scenario]
    if command == "compare":
        inputs.append({**scenario, "label": f"{case['label']}-reversed",
                       "generators": case["generators"][::-1]})
    paths = []
    for data in inputs:
        paths.append(tmp / f"{data['label']}.json")
        paths[-1].write_text(json.dumps(data))
    report = tmp / f"{case['label']}-report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    row = {
        "label": case["label"],
        "grade": case["grade"],
        "generators": case["generators"],
    }
    reports, walls = [], []
    for _ in range(samples):
        report.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "polyhardy.cli", command, *map(str, paths), "--quiet",
             "--output", str(report)],
            env=env, capture_output=True, text=True,
        )
        walls.append(time.perf_counter() - start)
        row["exit_code"] = proc.returncode
        if not report.exists():
            row["error"] = proc.stderr.strip()
            return row
        reports.append(json.loads(report.read_text()))
    if command == "compare":
        row["command"] = command
        row["verdict"] = reports[-1]["certificate"]["verdict"]
        row["certified_dims"] = reports[-1]["certified_dims"]
    else:
        row["timing"] = median_timing([r["timing"] for r in reports])
    row["wall_s"] = round(statistics.median(walls), 3)
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tag")
    parser.add_argument("--case", action="append", help="run only this case (repeatable)")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args()
    cases = ladder()
    if args.case:
        unknown = set(args.case) - {c["label"] for c in cases}
        if unknown:
            parser.error(f"unknown case(s): {', '.join(sorted(unknown))}")
        cases = [c for c in cases if c["label"] in args.case]
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        # one untimed run first: the first process of a session starts cold
        # and times every check several times slower than the next one
        warm_up = Path(tmp) / "warm-up"
        warm_up.mkdir()
        run_case(cases[0], warm_up, samples=1)
        for case in cases:
            rows.append(run_case(case, Path(tmp)))
            row, timing = rows[-1], rows[-1].get("timing", {})
            detail = row.get("verdict") or (
                f"{timing.get('seconds', '-')} s, {timing.get('peak_rss_mb', '-')} MB")
            print(f"{case['label']}: exit {row['exit_code']}, {detail}, "
                  f"wall {row.get('wall_s', '-')} s", file=sys.stderr)
    path = args.out / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps({"env": environment(), "cases": rows}, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
