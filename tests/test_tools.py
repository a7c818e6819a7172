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
