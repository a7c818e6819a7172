"""Command-line driver.

    polyhardy run SCENARIO.json [--tolerance T] [--margin M] [--max-dim N]
                  [--output report.json] [--quiet]
    polyhardy compare A.json B.json [--margin M] [--max-dim N]
                  [--output result.json] [--quiet]
    polyhardy selftest [--random K] [--tolerance T] [--max-dim N] [--quiet]

Exit codes: 0 all checks pass, 1 input or capacity error, 2 a verdict
failed, 3 a certificate came back indeterminate.
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from .blh import (
    MatrixPolynomial,
    extract_phi,
    extract_phi_via_theta,
    extract_theta,
    is_isometric_multiplier,
    kappa_polynomial,
    shift_purity_diagnostic,
    verify_intertwining,
    wold_multiplication_consistency,
)
from .classify import coincide, doubly_commuting_classification
from .errors import (
    CapacityError,
    DegenerateInputError,
    FlaggedWanderingError,
    GradeError,
    NotInvariantError,
    NotIsometricError,
    PipelineError,
    PolynomialParseError,
    ToolkitError,
)
from .grading import Grade, HardyVector
from .parsing import parse_polynomial
from .reporting import canonical_json
from .scenarios import (
    DEFAULT_PIPELINE,
    Scenario,
    builtin_corpus,
    load_scenario,
    scenario_to_json,
)
from .subspace import (
    DEFAULT_MARGIN,
    build_from_theta,
    check_invariant,
    max_principal_angle_sine,
    orbit_span,
    orbit_stability,
    rebuild_grade,
    wandering_subspace,
    wold_grade,
    wold_reconstruction,
    working_grade,
)

DEFAULT_MAX_DIM = 20000
ANGLE_TOL = 1e-8

_STEP_REQUIRES = {
    "orbit": None,
    "wandering": "orbit",
    "extract": "wandering",
    "verify": "extract",
    "classify": "extract",
}


def _validate_pipeline(steps: tuple[str, ...]) -> None:
    seen: set[str] = set()
    for step in steps:
        if step not in _STEP_REQUIRES:
            raise PipelineError(f"unknown pipeline step '{step}'")
        required = _STEP_REQUIRES[step]
        if required is not None and required not in seen:
            raise PipelineError(f"step '{step}' requires step '{required}'")
        seen.add(step)


def _grade_dims(grade: Grade, margin: int) -> dict[str, int]:
    """Ambient dimension of each grade a run works in."""
    return {
        "target": grade.dim,
        "working": working_grade(grade, margin).dim,
        "wold": wold_grade(grade).dim,
        "rebuild": rebuild_grade(grade).dim,
    }


def _prepare(
    scenario: Scenario, margin: int | None, max_dim: int
) -> tuple[int, list[HardyVector]]:
    """The margin a run uses (the scenario's option unless ``margin`` is
    given) and the parsed generators, after the trusted-range check and the
    capacity guard."""
    grade = scenario.grade
    if grade.outer_cap <= grade.safe_margin:
        raise DegenerateInputError(
            "outer cap does not exceed the safe margin; the trusted range is empty"
        )
    margin = int(scenario.option("margin", DEFAULT_MARGIN) if margin is None else margin)
    for name, dim in _grade_dims(grade, margin).items():
        if dim > max_dim:
            raise CapacityError(
                f"{name} grade needs ambient dimension {dim} > limit {max_dim}"
            )
    return margin, [parse_polynomial(text, grade) for text in scenario.generators]


def _lap_timer():
    """A dict of lap seconds, and a function that ends the running lap and
    records it under the given name."""
    laps: dict[str, float] = {}
    last = [time.monotonic()]

    def lap(name: str) -> None:
        now = time.monotonic()
        laps[name] = round(now - last[0], 4)
        last[0] = now

    return laps, lap


def run_pipeline(
    scenario: Scenario,
    tolerance: float = 1e-10,
    margin: int | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> dict:
    """Run the scenario's pipeline and return the full report dict."""
    start = time.monotonic()
    steps = tuple(scenario.pipeline) or DEFAULT_PIPELINE
    _validate_pipeline(steps)
    grade = scenario.grade
    used_margin, generators = _prepare(scenario, margin, max_dim)
    force = bool(scenario.option("force", False))
    trusted = grade.outer_cap - grade.safe_margin

    report: dict = {
        "label": scenario.label,
        "grade": scenario_to_json(scenario)["grade"],
        "generators": list(scenario.generators),
        "pipeline": list(steps),
        "options": {"margin": used_margin, "force": force, "tolerance": tolerance},
        "steps": {},
    }
    verdicts: dict[str, bool] = {}
    step_s, step = _lap_timer()
    check_s: dict[str, float] = {}

    s = w = theta = None
    phis: list = []
    if "orbit" in steps:
        s, stable = orbit_stability(
            generators, grade, used_margin, labels=(scenario.label,)
        )
        report["steps"]["orbit"] = {
            "dim": s.dim,
            "n_safe_columns": s.n_certified,
            "working_caps": list(s.provenance.working_caps),
            "stable": stable,
            "probe_margin": used_margin + 1,
        }
        report["flags"] = {"margin_stable": stable}
        step("orbit")

    if "wandering" in steps:
        w = wandering_subspace(s)
        report["steps"]["wandering"] = {
            "dim": w.dim,
            "certified": w.n_certified,
            "flagged": w.n_flagged,
        }
        step("wandering")

    if "extract" in steps:
        theta = extract_theta(s, w, force=force)
        phis = [extract_phi(s, w, axis, force=force) for axis in range(grade.n)]
        via = [extract_phi_via_theta(s, w, axis, force=force) for axis in range(grade.n)]
        agreement = 0.0
        nc = w.n_certified
        for direct, indirect in zip(phis, via):
            for cd, ci in zip(direct.coeffs, indirect.coeffs):
                diff = abs(cd[:nc, :nc] - ci[:nc, :nc]).max() if nc else 0.0
                agreement = max(agreement, float(diff))
        report["steps"]["extract"] = {
            "theta_degree": theta.degree,
            "theta": theta,
            "phi": phis,
            "phi_route_agreement": agreement,
            "n_certified": nc,
        }
        verdicts["phi_routes_agree"] = agreement < max(tolerance, 1e-10)
        step("extract")

    if "verify" in steps:
        check_s, check = _lap_timer()
        inv = check_invariant(s, range(grade.n + 1), tolerance=tolerance)
        verdicts["joint_invariant"] = inv.verdict
        check("invariance")
        intertwine = [
            verify_intertwining(
                kappa_polynomial(grade, axis),
                theta,
                phis[axis],
                trusted,
                n_certified=w.n_certified,
                tolerance=tolerance,
            )
            for axis in range(grade.n)
        ]
        verdicts["intertwining"] = all(r.verdict for r in intertwine)
        check("intertwining")
        iso = is_isometric_multiplier(theta, w.n_certified, tolerance=tolerance)
        verdicts["isometry"] = iso.verdict
        check("isometry")
        wold = wold_reconstruction(s, tolerance=tolerance)
        verdicts["wold"] = wold.verdict
        check("wold")
        rebuilt = build_from_theta(theta, grade)
        angle = max_principal_angle_sine(rebuilt, s)
        rebuilt_inv = check_invariant(rebuilt, [0], tolerance)
        complete = rebuilt.dim == s.dim
        rebuild_info = {
            "original_dim": s.dim,
            "rebuilt_dim": rebuilt.dim,
            "max_angle_sine": angle,
            "outer_invariance": rebuilt_inv.residuals[0],
            "complete": complete,
        }
        verdicts["rebuild_angles"] = angle < ANGLE_TOL
        verdicts["rebuild_outer_invariant"] = rebuilt_inv.verdict
        if complete:
            joint = check_invariant(rebuilt, range(grade.n + 1), tolerance)
            rebuild_info["joint_invariance"] = max(joint.residuals)
            verdicts["rebuild_joint_invariant"] = joint.verdict
        else:
            rebuild_info["joint_invariance"] = None
            rebuild_info["note"] = (
                "capped wandering vectors do not generate the capped slice under "
                "the outer shift; joint comparison skipped"
            )
        check("rebuild")
        consistency = [
            wold_multiplication_consistency(s, w, phis[axis], axis, tolerance=tolerance)
            for axis in range(grade.n)
        ]
        verdicts["wold_multiplication"] = all(c.verdict for c in consistency)
        check("wold_multiplication")
        report["steps"]["verify"] = {
            "invariance": inv,
            "intertwining": intertwine,
            "isometry": iso,
            "wold": wold,
            "rebuild": rebuild_info,
            "wold_multiplication": consistency,
        }
        step("verify")

    if "classify" in steps:
        classification = doubly_commuting_classification(
            s, phis, w.n_certified, tolerance=max(tolerance, 1e-10)
        )
        classify_info = {"doubly_commuting": classification}
        if scenario.option("purity", False):
            classify_info["purity"] = shift_purity_diagnostic(phis[0])
        report["steps"]["classify"] = classify_info
        verdicts["classification_consistent"] = classification.equivalence_holds
        step("classify")

    verdicts["all"] = all(verdicts.values())
    report["verdicts"] = verdicts
    # ru_maxrss is in KiB on Linux; it is the peak of the whole process
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["timing"] = {
        "seconds": round(time.monotonic() - start, 3),
        "steps": step_s,
        "verify_checks": check_s,
        "grade_dims": _grade_dims(grade, used_margin),
        "peak_rss_mb": round(peak_kib / 1024, 1),
    }
    return report


def _emit(report: dict, output: str | None, quiet: bool) -> None:
    text = canonical_json(report)
    if output:
        Path(output).write_text(text)
        if not quiet:
            print(f"report written to {output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_pipeline(
        scenario,
        tolerance=args.tolerance,
        margin=args.margin,
        max_dim=args.max_dim,
    )
    _emit(report, args.output, args.quiet)
    return 0 if report["verdicts"]["all"] else 2


def _certified_phis(
    scenario: Scenario, margin: int | None, max_dim: int
) -> tuple[str, list[MatrixPolynomial], int, int]:
    grade = scenario.grade
    used_margin, generators = _prepare(scenario, margin, max_dim)
    s = orbit_span(generators, grade, used_margin)
    w = wandering_subspace(s)
    force = bool(scenario.option("force", True))
    phis = [extract_phi(s, w, axis, force=force) for axis in range(grade.n)]
    nc = w.n_certified
    cert_phis = [
        MatrixPolynomial(tuple(c[:nc, :nc] for c in phi.coeffs)) for phi in phis
    ]
    return scenario.label, cert_phis, grade.outer_cap - grade.safe_margin, nc


def _cmd_compare(args: argparse.Namespace) -> int:
    results = [
        _certified_phis(load_scenario(path), args.margin, args.max_dim)
        for path in (args.scenario_a, args.scenario_b)
    ]
    (label_a, phis_a, trusted_a, nc_a), (label_b, phis_b, trusted_b, nc_b) = results
    if len(phis_a) != len(phis_b):
        print("scenarios have different inner-variable counts", file=sys.stderr)
        return 1
    cert = coincide(phis_a, phis_b, min(trusted_a, trusted_b))
    out = {
        "scenario_a": label_a,
        "scenario_b": label_b,
        "certified_dims": [nc_a, nc_b],
        "certificate": cert,
    }
    _emit(out, args.output, args.quiet)
    if cert.verdict == "coincide":
        return 0
    if cert.verdict == "distinct":
        return 2
    return 3


def _cmd_selftest(args: argparse.Namespace) -> int:
    scenarios = builtin_corpus(random_count=args.random)
    failures = 0
    for scenario in scenarios:
        try:
            report = run_pipeline(
                scenario, tolerance=args.tolerance, max_dim=args.max_dim
            )
            ok = report["verdicts"]["all"]
        except ToolkitError as exc:
            ok = False
            if not args.quiet:
                print(f"FAIL {scenario.label}: {exc}", file=sys.stderr)
        if not args.quiet:
            print(f"{'PASS' if ok else 'FAIL'} {scenario.label}")
        failures += 0 if ok else 1
    if not args.quiet:
        print(f"{len(scenarios) - failures}/{len(scenarios)} scenarios passed")
    return 0 if failures == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhardy",
        description="capped invariant-subspace toolkit for vector Hardy spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "--tolerance": {"type": float, "default": 1e-10},
        "--margin": {"type": int, "default": None},
        "--max-dim": {"type": int, "default": DEFAULT_MAX_DIM},
        "--quiet": {"action": "store_true"},
        "--output": {"type": str, "default": None},
    }

    def flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **specs[name])

    p_run = sub.add_parser("run", help="run a scenario pipeline")
    p_run.add_argument("scenario")
    flags(p_run, "--tolerance", "--margin", "--max-dim", "--quiet", "--output")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="coincidence certificate for two scenarios")
    p_cmp.add_argument("scenario_a")
    p_cmp.add_argument("scenario_b")
    flags(p_cmp, "--margin", "--max-dim", "--quiet", "--output")
    p_cmp.set_defaults(func=_cmd_compare)

    p_self = sub.add_parser("selftest", help="run the bundled corpus")
    p_self.add_argument("--random", type=int, default=2)
    flags(p_self, "--tolerance", "--max-dim", "--quiet")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        PolynomialParseError,
        GradeError,
        DegenerateInputError,
        CapacityError,
        PipelineError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotInvariantError, NotIsometricError, FlaggedWanderingError) as exc:
        print(f"verdict failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
