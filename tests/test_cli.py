from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyhardy as ph
from polyhardy import Grade, Scenario, cli, dump_scenario, load_scenario, operators
from polyhardy.cli import build_parser, main, run_pipeline
from polyhardy.reporting import canonical_json, stable_part, strip_timing

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def decode_matrix(entry: dict) -> np.ndarray:
    """A report matrix, stored by its nonzero entries, as a dense array."""
    flat = np.zeros(math.prod(entry["shape"]), dtype=complex)
    flat.real[entry["index"]], flat.imag[entry["index"]] = entry["re"], entry["im"]
    return flat.reshape(entry["shape"])


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
    dims = {"target": 36, "working": 64, "probe": 81, "wold": 100, "rebuild": 66}
    # z is homogeneous: the graded Wold check reads P_t ⊗ E for t ≤ 8
    assert timing["grade_dims"] == {**dims, "wold_kept": 45}
    assert timing["peak_rss_mb"] > 0


def test_run_report_carries_multiplier_coefficients(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["run", SCENARIOS / "z-minus-z1.json", "--output", out_path, "--quiet"], capsys
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    phi0 = report["steps"]["extract"]["phi"][0]
    first_order = decode_matrix(phi0["coeffs"][1])
    assert first_order.shape == (5, 5)
    assert abs(first_order[0, 0] + 0.5) < 1e-10


def _assert_bitwise_round_trip(written: dict, matrix: np.ndarray) -> None:
    assert written["shape"] == list(matrix.shape)
    index = np.array(written["index"], dtype=int)
    assert np.all(np.diff(index) > 0)
    values = np.array(written["re"]) + 1j * np.array(written["im"])
    assert np.all(values != 0)
    decoded = decode_matrix(written)
    assert decoded.dtype == matrix.dtype
    assert np.array_equal(decoded.view(np.uint64), matrix.view(np.uint64))


@pytest.mark.parametrize("label", ["z-minus-z1", "pair-n2"])
def test_written_symbols_decode_bit_for_bit(tmp_path, label):
    report = run_pipeline(load_scenario(SCENARIOS / f"{label}.json"))
    out_path = tmp_path / "report.json"
    cli._emit(report, str(out_path), quiet=True)
    written = json.loads(out_path.read_text())["steps"]["extract"]
    extract = report["steps"]["extract"]
    pairs = list(zip(written["theta"]["coeffs"], extract["theta"].coeffs, strict=True))
    for phi_written, phi in zip(written["phi"], extract["phi"], strict=True):
        pairs += zip(phi_written["coeffs"], phi.coeffs, strict=True)
    assert len(pairs) > 2
    for entry, matrix in pairs:
        _assert_bitwise_round_trip(entry, matrix)


def test_written_tau_decodes_bit_for_bit(pool_member, tmp_path):
    paths = []
    for reordered in (False, True):
        scenario = pool_member("n2-cmp-00", reordered)["scenario"]
        paths.append(tmp_path / f"{scenario.label}-{reordered}.json")
        dump_scenario(scenario, paths[-1])
    out_path = tmp_path / "compare.json"
    assert main(["compare", *map(str, paths), "--quiet", "--output", str(out_path)]) == 0
    scenarios = [load_scenario(p) for p in paths]
    results = [cli._certified_phis(sc, None, cli.DEFAULT_MAX_DIM) for sc in scenarios]
    (phis_a, _), (phis_b, _) = results
    grade = scenarios[0].grade
    tau = ph.coincide(phis_a, phis_b, grade.outer_cap - grade.safe_margin).tau
    _assert_bitwise_round_trip(json.loads(out_path.read_text())["certificate"]["tau"], tau)


@pytest.mark.parametrize(
    "matrix",
    [np.zeros((3, 2), dtype=complex), np.array([[0.0, -1.5], [2.0**-60, 0.0]])],
    ids=["all-zero", "real"],
)
def test_matrix_encoding_keeps_nonzero_entries_only(matrix):
    written = json.loads(canonical_json(matrix))
    assert written == {
        "shape": list(matrix.shape),
        "index": np.flatnonzero(matrix).tolist(),
        "re": matrix.real[matrix != 0].tolist(),
        "im": [0.0] * np.count_nonzero(matrix),
    }
    assert np.array_equal(decode_matrix(written), matrix)


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


def _at_one_and_two_threads(label: str) -> list[dict]:
    path = SCENARIOS / f"{label}.json"
    return [_run_in_subprocess({"OPENBLAS_NUM_THREADS": t}, path) for t in ("1", "2")]


def test_stable_part_independent_of_blas_threads():
    # The Wold residual of z-minus-z1 is formed at ambient dim 100, where a
    # multi-threaded OpenBLAS splits the work and so moves its last bits.
    # At n=2 the products behind Φ are large enough to be split across
    # threads, but their factors are block-sparse with exact zeros.
    for label in ("z-minus-z1", "full-rank2", "pair-n2"):
        single, double = _at_one_and_two_threads(label)
        assert single["verdicts"] == double["verdicts"], label
        assert canonical_json(stable_part(single)) == canonical_json(stable_part(double)), label


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


@pytest.mark.parametrize(
    "grade, generator",
    [(Grade(1, 5, 1, 1, safe_margin=2), "z - z1"), (Grade(1, 5, 0, 1), "z")],
)
def test_safe_margin_above_inner_cap_exit_one(capsys, tmp_path, grade, generator):
    # the safe band holds no inner degree, so nothing can be certified; with
    # force set, the run would otherwise go on past the flagged wandering space
    sc = Scenario(
        label="no-band", grade=grade, generators=(generator,), options=(("force", True),)
    )
    path = tmp_path / "no-band.json"
    dump_scenario(sc, path)
    code, out, err = run_cli(["run", path], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "trusted range" in err


def test_capacity_guard_exit_one(capsys):
    code, _, err = run_cli(["run", SCENARIOS / "z.json", "--max-dim", "50"], capsys)
    assert code == 1
    assert "limit" in err


def test_capacity_guard_counts_probe_grade(capsys, tmp_path):
    # working grade 27^3 = 19683 fits the default limit; the stability probe
    # of inhomogeneous generators spans at margin + 1, 28^3 = 21952
    unit = load_scenario(SCENARIOS / "pair-n2.json")
    path = tmp_path / "inhomogeneous-n2.json"
    dump_scenario(dataclasses.replace(unit, generators=("2 + z1", "z - z2")), path)
    code, out, err = run_cli(["run", path, "--margin", "22"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: probe grade needs ambient dimension 21952 > limit 20000\n"
    # homogeneous generators read the stability flag off the inverse system
    # and build no probe grade, so the same margin is admitted
    margin, generators = cli._prepare(unit, 22, cli.DEFAULT_MAX_DIM, unit.pipeline)
    assert margin == 22 and len(generators) == 2


def test_compare_guards_only_the_grades_it_builds(capsys, tmp_path):
    # z − z1 at D=N=5, margin 2: working grade 64, probe 81, rebuild 66 and
    # Wold 100 positions; compare builds only the target and working grades
    path = SCENARIOS / "z-minus-z1.json"
    code, out, _ = run_cli(["compare", path, path, "--max-dim", "81", "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "coincide"
    # an inhomogeneous run builds the Wold grade; a homogeneous one does not
    other = tmp_path / "two-plus-z1.json"
    dump_scenario(dataclasses.replace(load_scenario(path), generators=("2 + z1",)), other)
    code, out, err = run_cli(["run", other, "--max-dim", "81"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: wold grade needs ambient dimension 100 > limit 81\n"
    code, out, _ = run_cli(["run", path, "--max-dim", "81", "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["verdicts"]["all"]


def test_run_guards_only_the_grades_its_pipeline_builds(capsys, tmp_path):
    # without verify, the run builds no Wold or rebuild grade
    unit = load_scenario(SCENARIOS / "z-minus-z1.json")
    path = tmp_path / "orbit-wandering.json"
    dump_scenario(dataclasses.replace(unit, pipeline=("orbit", "wandering")), path)
    code, out, _ = run_cli(["run", path, "--max-dim", "81", "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["timing"]["grade_dims"]["wold"] == 100


@pytest.mark.parametrize("generator", ["1e999*z - 1e999*z", "1e999*z - z1", "(1e999+1i)*z1"])
def test_non_finite_coefficient_exit_one(capsys, tmp_path, generator):
    unit = load_scenario(SCENARIOS / "z-minus-z1.json")
    path = tmp_path / "non-finite.json"
    dump_scenario(dataclasses.replace(unit, generators=(generator,)), path)
    code, out, err = run_cli(["run", path], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: non-finite coefficient in {generator!r}\n"


@pytest.mark.parametrize("margin", ["-1", "-9"])
def test_negative_margin_exit_one_before_any_grade_is_sized(capsys, margin):
    code, out, err = run_cli(["run", SCENARIOS / "z.json", "--margin", margin], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: working margin must be nonnegative\n"


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf", "1e300", "1"])
def test_bad_tolerance_exit_one(capsys, tolerance):
    code, out, err = run_cli(["run", SCENARIOS / "z.json", "--tolerance", tolerance], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: tolerance must be positive")


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_selftest_bad_tolerance_exit_one_before_any_scenario(capsys, tolerance):
    code, out, err = run_cli(["selftest", "--random", "0", "--tolerance", tolerance], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: tolerance must be positive and below 1, not {float(tolerance)}\n"


def test_purity_option_is_rejected(capsys, tmp_path):
    data = json.loads((SCENARIOS / "z-minus-z1.json").read_text())
    data["options"]["purity"] = True
    path = tmp_path / "purity.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", path], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: scenario option 'purity' must be one of margin, force\n"


MALFORMED = [
    (("grade", "n"), "two"),
    (("grade", "n"), 1.5),
    (("grade", "D"), True),
    (("grade",), [1, 5, 5]),
    (("options", "margin"), "big"),
    (("options",), [1]),
    (("options", "force"), "no"),
    (("options", "purity"), 1),
    (("pipeline",), "orbit"),
    (("generators",), "z - z1"),
    (("generators",), [1]),
    (("pipline",), ["orbit"]),
    (("options", "margn"), 7),
    (("grade", "d_e"), 1),
    (("label",), 5),
    (("label",), [1, 2]),
]


@pytest.mark.parametrize(
    "keys, value", MALFORMED, ids=[f"{'.'.join(k)}={json.dumps(v)}" for k, v in MALFORMED]
)
def test_malformed_scenario_exit_one_without_traceback(capsys, tmp_path, keys, value):
    data = json.loads((SCENARIOS / "z-minus-z1.json").read_text())
    *parents, last = keys
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", path], capsys)
    assert code == 1
    assert err.startswith("error: scenario")
    assert "must be" in err
    assert "Traceback" not in err
    assert out == ""


def _cli_subprocess(argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "polyhardy.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only classify.isometric_module_map_lower_bound uses scipy.optimize,
    # and no command calls it, so no CLI process should pay for its import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    probe = "import sys, polyhardy.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_sparse_unloaded():
    # the block kernels work on numpy index arrays, so a CLI process loads
    # neither scipy's sparse arrays, its graph search nor its linear algebra
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    modules = ["scipy.sparse", "scipy.sparse.csgraph", "scipy.linalg"]
    probe = f"import sys, polyhardy.cli; print([m in sys.modules for m in {modules}])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == str([False] * len(modules))


def _dims_and_verdicts(report: dict) -> tuple:
    steps = report["steps"]
    dims = (steps["orbit"]["dim"], steps["orbit"]["n_safe_columns"])
    dims += (steps["wandering"]["dim"], steps["wandering"]["certified"])
    return dims, report["verdicts"]


def test_tiny_generator_runs_like_unit_scale(tmp_path):
    # 1e-15·(z − z1) spans what z − z1 spans
    unit_path = SCENARIOS / "z-minus-z1.json"
    unit = load_scenario(unit_path)
    sc = dataclasses.replace(unit, label="tiny", generators=("1e-15*z - 1e-15*z1",))
    path = tmp_path / "tiny.json"
    dump_scenario(sc, path)
    procs = [_cli_subprocess(["run", str(p)]) for p in (unit_path, path)]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert "Traceback" not in procs[1].stderr
    unit_report, tiny_report = (json.loads(proc.stdout) for proc in procs)
    assert _dims_and_verdicts(tiny_report) == _dims_and_verdicts(unit_report)


def test_subnormal_products_end_without_traceback(tmp_path):
    # 1e-300·z − z1 leaves products whose largest modulus is subnormal
    unit = load_scenario(SCENARIOS / "z-minus-z1.json")
    path = tmp_path / "subnormal.json"
    dump_scenario(dataclasses.replace(unit, generators=("1e-300*z - z1",)), path)
    argvs = (["run", str(path)], ["compare", str(path), str(path)])
    procs = [_cli_subprocess(argv) for argv in argvs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert not any("Traceback" in proc.stderr for proc in procs)
    assert json.loads(procs[1].stdout)["certificate"]["verdict"] == "coincide"


@pytest.mark.parametrize("scale", ["1e-15", "1e-11", "1e6"])
@pytest.mark.parametrize("generators", [("z - z1",), ("z", "z1")])
def test_generator_scale_changes_no_dim_or_verdict(generators, scale):
    # scaling a generator does not change the subspace: the last generator
    # is multiplied by the scale, term by term
    unit = load_scenario(SCENARIOS / "z-minus-z1.json")
    *rest, last = generators
    scaled = last.replace("z", f"{scale}*z")
    cases = [generators, (*rest, scaled)]
    reports = [run_pipeline(dataclasses.replace(unit, generators=g)) for g in cases]
    assert _dims_and_verdicts(reports[1]) == _dims_and_verdicts(reports[0])


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


@pytest.mark.parametrize("pipeline", [(), ("orbit", "orbit")], ids=["empty", "repeated"])
def test_empty_or_repeated_pipeline_exit_one(capsys, tmp_path, pipeline):
    sc = Scenario(label="odd", grade=Grade(1, 5, 5, 1), generators=("z",), pipeline=pipeline)
    path = tmp_path / "odd.json"
    dump_scenario(sc, path)
    code, out, err = run_cli(["run", path], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: a pipeline names one or more steps, each once, not {list(pipeline)}\n"


@pytest.mark.parametrize(
    "first, second",
    [(("n2-cmp-00", False), ("n2-cmp-00", True)), (("n2-cmp-01", False), ("n2-cmp-02", False))],
    ids=["reordered", "distinct"],
)
def test_compare_swapped_gives_the_same_answer(pool_member, tmp_path, capsys, first, second):
    # B against A reads the verdict and null-space dimension of A against B,
    # through coincide and through the command
    paths = []
    for k, (label, reordered) in enumerate((first, second)):
        paths.append(tmp_path / f"{k}.json")
        dump_scenario(pool_member(label, reordered)["scenario"], paths[-1])
    scenarios = [load_scenario(p) for p in paths]
    phis = [cli._certified_phis(sc, None, cli.DEFAULT_MAX_DIM)[0] for sc in scenarios]
    trusted = scenarios[0].grade.outer_cap - scenarios[0].grade.safe_margin
    answers = []
    for pair, order in ((phis, paths), (phis[::-1], paths[::-1])):
        cert = ph.coincide(*pair, trusted)
        code, out, _ = run_cli(["compare", *order, "--quiet"], capsys)
        written = json.loads(out)["certificate"]
        assert (written["verdict"], written["nullspace_dim"]) == (cert.verdict, cert.nullspace_dim)
        answers.append((code, cert.verdict, cert.nullspace_dim))
    assert answers[0] == answers[1]
    assert answers[0][:2] == ((0, "coincide") if first[0] == second[0] else (2, "distinct"))


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


@pytest.mark.parametrize(
    "generators",
    [
        (
            "(0.513+0.559i)*z2 + (-0.288-0.479i)*z1 + (0.79+1.265i)*z",
            "(1.058-0.983i)*z2 + (-0.474+0.407i)*z1 + (0.77-0.057i)*z",
        ),
        (
            "(0.596-0.252i)*z2 + (0.806-0.536i)*z1 + (-0.977+0.494i)*z",
            "(0.195+0.475i)*z2 + (-0.356-1.036i)*z1 + (-0.159-0.9i)*z",
        ),
    ],
    ids=["n2-cmp-05", "n2-cmp-10"],
)
def test_compare_reordered_linear_forms_coincide(capsys, tmp_path, generators):
    # Two linear forms at n=2, D=N=5. A wandering basis that leaks about
    # 2e-10 onto unsafe rows fails the inner-shift check or the Sylvester
    # search; the block kernels keep those rows at round-off.
    paths = []
    for label, gens in (("forms", generators), ("forms-reordered", generators[::-1])):
        path = tmp_path / f"{label}.json"
        dump_scenario(Scenario(label, Grade(2, 5, 5, 1), gens, options=(("force", True),)), path)
        paths.append(path)
    code, out, _ = run_cli(["compare", *paths, "--quiet"], capsys)
    assert code == 0
    result = json.loads(out)
    assert result["certificate"]["verdict"] == "coincide"
    assert result["certified_dims"] == [20, 20]


def test_compare_full_rank2_self_coincides(capsys):
    # the matrices commuting with full-rank2's Φ span 20 dimensions, those
    # commuting with Φ and Φᴴ span 4, and a random one of those is invertible
    code, out, _ = run_cli(
        [
            "compare",
            SCENARIOS / "full-rank2.json",
            SCENARIOS / "full-rank2.json",
            "--quiet",
        ],
        capsys,
    )
    assert code == 0
    certificate = json.loads(out)["certificate"]
    assert certificate["verdict"] == "coincide"
    assert certificate["nullspace_dim"] == 4
    assert certificate["sigma_ratio"] > 1e-8
    assert certificate["unitarity_residual"] < 1e-8
    assert certificate["intertwining_residual"] < 1e-8


# n=1, D=N=5, d_E=2 generators and their images under a unitary of C²:
# the rotation e_0 -> 0.6e_0 + 0.8e_1, e_1 -> -0.8e_0 + 0.6e_1, and the swap
BASE = ("z + z1*e_1", "z^2")
ROTATED = ("0.6*z + 0.8*z*e_1 - 0.8*z1 + 0.6*z1*e_1", "0.6*z^2 + 0.8*z^2*e_1")
SWAPPED = ("z*e_1 + z1", "z^2*e_1")
DIFFERENCE = ("z - z1", "z*e_1")
DIFFERENCE_ROTATED = ("0.6*z - 0.6*z1 + 0.8*z*e_1 - 0.8*z1*e_1", "-0.8*z + 0.6*z*e_1")


@pytest.mark.parametrize(
    "first, second, code, verdict, nullspace_dim",
    [
        (BASE, ROTATED, 0, "coincide", 4),
        (BASE, SWAPPED, 0, "coincide", 4),
        (DIFFERENCE, DIFFERENCE_ROTATED, 0, "coincide", 2),
        (BASE, DIFFERENCE, 2, "distinct", 0),
    ],
    ids=["rotation", "swap", "difference-rotation", "base-vs-difference"],
)
def test_compare_unitary_change_of_coefficient_basis(
    capsys, tmp_path, first, second, code, verdict, nullspace_dim
):
    paths = []
    for label, gens in (("first", first), ("second", second)):
        path = tmp_path / f"{label}.json"
        dump_scenario(Scenario(label, Grade(1, 5, 5, 2), gens), path)
        paths.append(path)
    exit_code, out, _ = run_cli(["compare", *paths, "--quiet"], capsys)
    assert exit_code == code
    certificate = json.loads(out)["certificate"]
    assert certificate["verdict"] == verdict
    assert certificate["nullspace_dim"] == nullspace_dim
    if verdict == "coincide":
        assert certificate["intertwining_residual"] < 1e-8


def test_compare_different_axis_counts_exit_one():
    proc = _cli_subprocess(
        ["compare", str(SCENARIOS / "z-minus-z1.json"), str(SCENARIOS / "pair-n2.json")]
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "axis counts differ" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_compare_checks_axis_counts_before_any_orbit(capsys, monkeypatch):
    calls = []
    orbit_span = cli.orbit_span

    def counting_orbit_span(*args, **kwargs):
        calls.append(args)
        return orbit_span(*args, **kwargs)

    monkeypatch.setattr(cli, "orbit_span", counting_orbit_span)
    paths = [SCENARIOS / "z-minus-z1.json", SCENARIOS / "pair-n2.json"]
    code, out, err = run_cli(["compare", *paths], capsys)
    assert (code, out, err) == (1, "", "error: axis counts differ\n")
    assert calls == []


def _compare_scenarios(tmp_path, grades) -> list[Path]:
    paths = []
    for k, grade in enumerate(grades):
        path = tmp_path / f"{k}.json"
        dump_scenario(Scenario(f"s{k}", grade, ("z - z1",)), path)
        paths.append(path)
    return paths


@pytest.mark.parametrize(
    "other",
    [Grade(1, 3, 3, 1), Grade(1, 5, 4, 1), Grade(1, 4, 5, 1), Grade(1, 5, 5, 1, 2)],
    ids=["both-caps", "inner-cap", "outer-cap", "safe-margin"],
)
def test_compare_different_caps_exit_one_before_any_orbit(capsys, monkeypatch, tmp_path, other):
    # capped symbols from different caps are different finite sections
    calls = []
    monkeypatch.setattr(cli, "orbit_span", lambda *args: calls.append(args))
    paths = _compare_scenarios(tmp_path, [Grade(1, 5, 5, 1), other])
    code, out, err = run_cli(["compare", *paths], capsys)
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error: caps (D, N, safe margin) differ")


def test_compare_different_coefficient_dims_coincide(capsys, tmp_path):
    paths = _compare_scenarios(tmp_path, [Grade(1, 5, 5, 1), Grade(1, 5, 5, 2)])
    code, out, _ = run_cli(["compare", *paths, "--quiet"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "coincide"


@pytest.mark.parametrize("error", ph.ToolkitError.__subclasses__(), ids=lambda e: e.__name__)
def test_error_exit_codes(capsys, monkeypatch, error):
    # the three verdict errors exit 2, every other toolkit error exits 1
    verdict = error in (ph.NotInvariantError, ph.NotIsometricError, ph.FlaggedWanderingError)
    assert error.exit_code == (2 if verdict else 1) and ph.ToolkitError.exit_code == 1

    def raising(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_cmd_run", raising)
    code, out, err = run_cli(["run", "any.json"], capsys)
    prefix = "verdict failure" if verdict else "error"
    assert (code, out, err) == (error.exit_code, "", f"{prefix}: boom\n")


def test_selftest_refusal_exits_one(capsys):
    # the capacity guard refuses pair-n2 (target 125 > 100): a refusal, not
    # a failed verdict
    code, out, err = run_cli(["selftest", "--random", "0", "--max-dim", "100"], capsys)
    assert code == 1
    assert "REFUSED pair-n2\n" in out
    assert "FAIL" not in out
    assert "5/6 scenarios passed, 1 refused" in out
    assert err == "REFUSED pair-n2: target grade needs ambient dimension 125 > limit 100\n"


def test_selftest_failed_verdict_exits_two(capsys, monkeypatch):
    real = cli.run_pipeline

    def failing(scenario, **kwargs):
        report = real(scenario, **kwargs)
        report["verdicts"]["all"] = scenario.label != "z"
        return report

    monkeypatch.setattr(cli, "run_pipeline", failing)
    code, out, _ = run_cli(["selftest", "--random", "0", "--max-dim", "100"], capsys)
    assert code == 1  # a refusal outranks the failed verdict
    code, out, _ = run_cli(["selftest", "--random", "0"], capsys)
    assert code == 2
    assert "FAIL z\n" in out
    assert "5/6 scenarios passed, 0 refused" in out


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
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["frobnicate"])
    assert exc.value.code == 1


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
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["run", "x.json", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
        (["run", "x.json", "--margin", "abc"], "argument --margin: invalid int value: 'abc'"),
        (["selftest", "--random", "-3"], "argument --random: invalid count value: '-3'"),
    ],
    ids=["no-command", "unknown-flag", "bad-int", "negative-random"],
)
def test_usage_error_exit_one_not_two(argv, message):
    """Exit 2 means a failed verdict, so a usage error must not use it."""
    proc = _cli_subprocess(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: polyhardy")
    assert proc.stderr.endswith(f"error: {message}\n")
    assert "Traceback" not in proc.stderr


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: polyhardy run")
