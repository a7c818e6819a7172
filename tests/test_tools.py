from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_ladder_writes_timing_rows(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "bench_ladder.py"), "t",
         "--case", "z-minus-z1", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert set(bench["env"]) == {"nproc", "python", "numpy", "scipy", "openblas_threads"}
    [row] = bench["cases"]
    assert row["label"] == "z-minus-z1"
    assert row["exit_code"] == 0
    timing = row["timing"]
    # the process wall time also counts encoding and writing the report
    assert row["wall_s"] > timing["seconds"]
    assert set(timing) == {"seconds", "steps", "verify_checks", "grade_dims", "peak_rss_mb"}
    assert set(timing["steps"]) == {"orbit", "wandering", "extract", "verify", "classify"}
    assert "wold_kept" in timing["grade_dims"]
    assert timing["peak_rss_mb"] > 0


def test_bench_ladder_failing_rung_keeps_its_timing(tmp_path):
    # 2 + z1 is invertible, so [f] is all of H², which no capped span
    # reaches: the Wold verdict fails (exit 2), and the ladder, which has no
    # gate, records the run like any other
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "bench_ladder.py"), "t",
         "--case", "two-plus-z1", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    [row] = json.loads((tmp_path / "BENCH_t.json").read_text())["cases"]
    assert row["label"] == "two-plus-z1"
    assert row["generators"] == ["2 + z1"]
    assert row["exit_code"] == 2
    assert row["timing"]["seconds"] > 0
    assert "error" not in row


def test_bench_ladder_lists_the_inhomogeneous_n2_rung():
    # its Wold check factors one 1330-row block and takes seconds, so the
    # rung is only listed here, not run
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, bench_ladder; print(json.dumps(bench_ladder.ladder()))"],
        cwd=REPO / "tools", capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    [case] = [c for c in json.loads(proc.stdout) if c["label"] == "n2-D4-inhom"]
    assert case["generators"] == ["1 + z - z1", "z - z2"]
    assert case["grade"] == {"n": 2, "D": 4, "N": 4, "d_E": 1}
    assert case["options"] == {"force": True, "margin": 2}


def test_bench_ladder_compare_rung(tmp_path):
    # n2-D5 against its generators in reverse order: the same subspace
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "bench_ladder.py"), "t",
         "--case", "n2-D5-compare", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    [row] = json.loads((tmp_path / "BENCH_t.json").read_text())["cases"]
    assert row["label"] == "n2-D5-compare"
    assert row["command"] == "compare"
    assert row["generators"] == ["z - z1", "z - z2"]
    assert row["exit_code"] == 0
    assert row["verdict"] == "coincide"
    dims = row["certified_dims"]
    assert dims[0] == dims[1] > 0
    assert row["wall_s"] > 0
    assert "timing" not in row


def test_report_diff_of_a_tree_against_itself_finds_nothing():
    ops = ["run:z-minus-z1", "run:n2-lin-00", "compare:n2-cmp-00/n2-cmp-00-reordered"]
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "report_diff.py"), str(REPO), str(REPO),
         *(arg for op in ops for arg in ("--op", op))],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("3 ops (2 run, 1 compare)")
    assert lines[1] == "answers that differ: 0"
    # every key is equal, so no key is listed under the heading
    assert lines[2].startswith("largest absolute difference per key (")
    assert lines[3] == "matrices whose nonzero pattern moved: 0"
    assert len(lines) == 4
