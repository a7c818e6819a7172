from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyhardy import Grade, Scenario, dump_scenario, load_scenario, operators
from polyhardy.cli import build_parser, main, run_pipeline
from polyhardy.reporting import canonical_json, stable_part, strip_timing

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_exit_zero_and_report_shape(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["run", SCENARIOS / "z.json", "--output", out_path, "--quiet"], capsys
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["label"] == "z"
    assert report["verdicts"]["all"] is True
    assert set(report["steps"]) == {"orbit", "wandering", "extract", "verify", "classify"}
    assert report["steps"]["orbit"]["dim"] == 30
    assert report["steps"]["wandering"]["dim"] == 6
    timing = report["timing"]
    assert set(timing) == {
        "seconds",
        "steps",
        "verify_checks",
        "grade_dims",
        "peak_rss_mb",
    }
    assert set(timing["steps"]) == set(report["steps"])
    assert set(timing["verify_checks"]) == {
        "invariance",
        "intertwining",
        "isometry",
        "wold",
        "rebuild",
        "wold_multiplication",
    }
    seconds = [*timing["steps"].values(), *timing["verify_checks"].values()]
    assert all(v >= 0 for v in seconds)
    dims = {"target": 36, "working": 64, "wold": 100, "rebuild": 66}
    assert timing["grade_dims"] == dims
    assert timing["peak_rss_mb"] > 0


def test_run_report_carries_multiplier_coefficients(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["run", SCENARIOS / "z-minus-z1.json", "--output", out_path, "--quiet"], capsys
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    phi0 = report["steps"]["extract"]["phi"][0]
    first_order = phi0["coeffs"][1]
    assert first_order["shape"] == [5, 5]
    re, im = first_order["rows"][0][0]
    assert abs(complex(re, im) + 0.5) < 1e-10


def test_golden_report_bytes():
    report = run_pipeline(load_scenario(SCENARIOS / "z-minus-z1.json"))
    text = canonical_json(stable_part(report))
    golden = (GOLDEN / "z-minus-z1-report.json").read_text()
    assert text == golden


def _run_in_subprocess(
    env_update: dict[str, str], path: Path = SCENARIOS / "z-minus-z1.json"
) -> dict:
    env = dict(os.environ, **env_update)
    src = str(REPO / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "polyhardy.cli", "run", str(path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out)


def test_stable_part_independent_of_blas_threads():
    # The Wold residual of z-minus-z1 is formed at ambient dim 100, where a
    # multi-threaded OpenBLAS splits the work and so moves its last bits.
    single = _run_in_subprocess({"OPENBLAS_NUM_THREADS": "1"})
    ambient = _run_in_subprocess({})
    assert single["verdicts"] == ambient["verdicts"]
    assert canonical_json(stable_part(single)) == canonical_json(stable_part(ambient))


def test_wold_verdict_independent_of_blas_threads(tmp_path):
    # Two generic linear forms at n=2 whose Wold rank cut once depended on
    # the OpenBLAS thread count (residual 0.473 with two threads).
    sc = Scenario(
        label="linear-forms",
        grade=Grade(2, 4, 4, 1),
        generators=(
            "(0.676-1.049i)*z2 + (0.169-0.701i)*z1 + (-0.0-1.339i)*z",
            "(-0.833+0.699i)*z2 + (-0.54+0.597i)*z1 + (0.2+0.55i)*z",
        ),
        options=(("force", True),),
    )
    path = tmp_path / "linear-forms.json"
    dump_scenario(sc, path)
    single = _run_in_subprocess({"OPENBLAS_NUM_THREADS": "1"}, path)
    for report in (run_pipeline(sc), single):
        wold = json.loads(canonical_json(report["steps"]["verify"]["wold"]))
        assert wold["verdict"] is True
        assert wold["residual"] < 1e-12


def test_no_dense_shift_above_inner_slot(monkeypatch):
    # pipeline shifts are gathers; a dense shift is built only for the
    # inner-slot symbol κ
    original = operators.shift_matrix
    dims = []

    def recording(grade, axis):
        dims.append(grade.dim)
        return original(grade, axis)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyhardy") and vars(module).get("shift_matrix") is original:
            monkeypatch.setattr(module, "shift_matrix", recording)
    scenario = load_scenario(SCENARIOS / "pair-n2.json")
    run_pipeline(scenario)
    assert dims
    assert max(dims) <= scenario.grade.inner_slot_dim


def test_report_deterministic():
    scenario = load_scenario(SCENARIOS / "z-minus-z1.json")
    first = canonical_json(strip_timing(run_pipeline(scenario)))
    second = canonical_json(strip_timing(run_pipeline(scenario)))
    assert first == second


def test_missing_file_exit_one(capsys):
    code, _, err = run_cli(["run", "no-such-scenario.json"], capsys)
    assert code == 1
    assert "error:" in err


def test_invalid_json_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(["run", bad], capsys)
    assert code == 1
    assert "error:" in err


def test_degenerate_grade_exit_one(capsys, tmp_path):
    sc = Scenario(label="flat", grade=Grade(1, 1, 4, 1), generators=("z",))
    path = tmp_path / "flat.json"
    dump_scenario(sc, path)
    code, _, err = run_cli(["run", path], capsys)
    assert code == 1
    assert "trusted range" in err


def test_capacity_guard_exit_one(capsys):
    code, _, err = run_cli(["run", SCENARIOS / "z.json", "--max-dim", "50"], capsys)
    assert code == 1
    assert "limit" in err


def _cli_subprocess(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polyhardy.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )


def test_tiny_generator_exit_one_without_traceback(tmp_path):
    sc = Scenario(label="tiny", grade=Grade(1, 5, 5, 1), generators=("1e-15*z - 1e-15*z1",))
    path = tmp_path / "tiny.json"
    dump_scenario(sc, path)
    proc = _cli_subprocess(["run", str(path)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["run", "compare"])
def test_empty_wandering_space_exit_one_without_traceback(tmp_path, command):
    # S is nonzero, but no vector of S ⊖ zS fits inside the caps
    sc = Scenario(
        label="no-wandering", grade=Grade(1, 5, 5, 1), generators=("1 + z - z1",)
    )
    path = tmp_path / "no-wandering.json"
    dump_scenario(sc, path)
    files = [str(path)] * (2 if command == "compare" else 1)
    proc = _cli_subprocess([command, *files])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "wandering" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_pipeline_dependency_exit_one(capsys, tmp_path):
    sc = Scenario(
        label="orphan",
        grade=Grade(1, 5, 5, 1),
        generators=("z",),
        pipeline=("wandering",),
    )
    path = tmp_path / "orphan.json"
    dump_scenario(sc, path)
    code, _, err = run_cli(["run", path], capsys)
    assert code == 1
    assert "requires" in err


def test_compare_self_coincides(capsys):
    code, out, _ = run_cli(
        [
            "compare",
            SCENARIOS / "z-minus-z1.json",
            SCENARIOS / "z-minus-z1.json",
            "--quiet",
        ],
        capsys,
    )
    assert code == 0
    result = json.loads(out)
    assert result["certificate"]["verdict"] == "coincide"
    assert result["certificate"]["unitarity_residual"] < 1e-8


def test_compare_distinct_exit_two(capsys):
    code, out, _ = run_cli(
        ["compare", SCENARIOS / "z-minus-z1.json", SCENARIOS / "one.json", "--quiet"],
        capsys,
    )
    assert code == 2
    result = json.loads(out)
    assert result["certificate"]["verdict"] == "distinct"
    assert result["certified_dims"] == [4, 5]


def test_compare_indeterminate_exit_three(capsys):
    code, out, _ = run_cli(
        [
            "compare",
            SCENARIOS / "full-rank2.json",
            SCENARIOS / "full-rank2.json",
            "--quiet",
        ],
        capsys,
    )
    assert code == 3
    result = json.loads(out)
    assert result["certificate"]["verdict"] == "indeterminate"
    assert result["certificate"]["nullspace_dim"] > 8


def test_selftest_named_corpus(capsys):
    code, out, _ = run_cli(["selftest", "--random", "0"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 6
    assert all(ln.startswith("PASS") for ln in lines)
    assert "6/6 scenarios passed" in out


def test_selftest_quiet(capsys):
    code, out, _ = run_cli(["selftest", "--random", "0", "--quiet"], capsys)
    assert code == 0
    assert out == ""


def test_parser_rejects_unknown_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "a.json", "b.json", "--tolerance", "1e-3"],
        ["selftest", "--margin", "3"],
        ["selftest", "--output", "report.json"],
        ["run", "a.json", "--no-stability"],
    ],
    ids=["compare-tolerance", "selftest-margin", "selftest-output", "run-no-stability"],
)
def test_parser_rejects_flags_the_command_ignores(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
