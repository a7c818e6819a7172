"""Command-line driver.

    polyhardy run SCENARIO.json [--tolerance T] [--margin M] [--max-dim N]
                  [--output report.json] [--quiet]
    polyhardy compare A.json B.json [--margin M] [--max-dim N]
                  [--output result.json] [--quiet]
    polyhardy selftest [--random K] [--tolerance T] [--max-dim N] [--quiet]

Exit codes: 0 all checks pass, 1 input, usage or capacity error, 2 a
verdict failed, 3 a certificate came back indeterminate. An error's code is its
class's ``exit_code``; ``selftest`` exits 1 if any scenario was refused.
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
    verify_intertwining,
    wold_multiplication_consistency,
)
from .classify import coincide, doubly_commuting_classification
from .errors import CapacityError, DegenerateInputError, GradeError, PipelineError, ToolkitError
from .graded import homogeneous
from .grading import Grade, HardyVector
from .operators import ANGLE_TOL, VERDICT_TOL
from .parsing import parse_polynomial
from .reporting import canonical_json
from .scenarios import Scenario, builtin_corpus, load_scenario, scenario_to_json
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
_BUILT_BY = {"probe": "orbit", "wold": "verify", "rebuild": "verify"}
_MARGIN_ONLY = ("probe", "wold")  # grades the graded path of homogeneous input never builds
# by exit code: a selftest scenario's outcome, and an error's stderr prefix
_OUTCOME = {0: "PASS", 1: "REFUSED", 2: "FAIL"}
_PREFIX = {1: "error", 2: "verdict failure"}

_STEP_REQUIRES = {
    "orbit": None,
    "wandering": "orbit",
    "extract": "wandering",
    "verify": "extract",
    "classify": "extract",
}


def _validate_pipeline(steps: tuple[str, ...]) -> None:
    if not steps or len(set(steps)) < len(steps):
        raise PipelineError(f"a pipeline names one or more steps, each once, not {list(steps)}")
    for i, step in enumerate(steps):
        if step not in _STEP_REQUIRES:
            raise PipelineError(f"unknown pipeline step '{step}'")
        required = _STEP_REQUIRES[step]
        if required not in (None, *steps[:i]):
            raise PipelineError(f"step '{step}' requires step '{required}'")


def _grade_dims(grade: Grade, margin: int) -> dict[str, int]:
    """Ambient dimension of each grade a run works in."""
    return {
        "target": grade.dim,
        "working": working_grade(grade, margin).dim,
        "probe": working_grade(grade, margin + 1).dim,
        "wold": wold_grade(grade).dim,
        "rebuild": rebuild_grade(grade).dim,
    }


def _prepare(
    scenario: Scenario, margin: int | None, max_dim: int, steps: tuple[str, ...] = ()
) -> tuple[int, list[HardyVector]]:
    """The margin a run uses (the scenario's option unless ``margin`` is
    given) and the parsed generators, after the margin check, the
    trusted-range check and the capacity guard on the grades that the
    pipeline ``steps`` build: target and working always, the probe with
    ``orbit``, the Wold and rebuild grades with ``verify``, but neither the
    probe nor the Wold grade for homogeneous generators, whose stability
    flag and Wold check read the inverse system instead."""
    margin = int(scenario.option("margin", DEFAULT_MARGIN) if margin is None else margin)
    if margin < 0:
        raise GradeError("working margin must be nonnegative")
    grade = scenario.grade
    if grade.outer_cap <= grade.safe_margin or grade.inner_cap < grade.safe_margin:
        raise DegenerateInputError(
            "the safe margin leaves the safe band or the trusted range empty"
        )
    generators = [parse_polynomial(text, grade) for text in scenario.generators]
    skipped = _MARGIN_ONLY if homogeneous(generators) else ()
    for name, dim in _grade_dims(grade, margin).items():
        if dim > max_dim and _BUILT_BY.get(name) in (None, *steps) and name not in skipped:
            raise CapacityError(
                f"{name} grade needs ambient dimension {dim} > limit {max_dim}"
            )
    return margin, generators


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


def _check_tolerance(tolerance: float) -> None:
    """Every verdict residual is a norm of order one, so a tolerance of 1 or
    more certifies nothing."""
    if not 0 < tolerance < 1:  # also rejects NaN
        raise GradeError(f"tolerance must be positive and below 1, not {tolerance}")


def run_pipeline(
    scenario: Scenario,
    tolerance: float = VERDICT_TOL,
    margin: int | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> dict:
    """Run the scenario's pipeline and return the full report dict."""
    start = time.monotonic()
    _check_tolerance(tolerance)
    steps = tuple(scenario.pipeline)
    _validate_pipeline(steps)
    grade = scenario.grade
    used_margin, generators = _prepare(scenario, margin, max_dim, steps)
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
        s, stable = orbit_stability(generators, grade, used_margin)
        gw = working_grade(grade, used_margin)
        report["steps"]["orbit"] = {
            "dim": s.dim,
            "n_safe_columns": s.n_certified,
            "working_caps": [gw.outer_cap, gw.inner_cap],
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
        verdicts["phi_routes_agree"] = agreement < max(tolerance, VERDICT_TOL)
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
        rebuilt_inv = check_invariant(rebuilt, range(grade.n + 1), tolerance)
        complete = rebuilt.dim == s.dim
        rebuild_info = {
            "original_dim": s.dim,
            "rebuilt_dim": rebuilt.dim,
            "max_angle_sine": angle,
            "outer_invariance": rebuilt_inv.residuals[0],
            "complete": complete,
        }
        verdicts["rebuild_angles"] = angle < ANGLE_TOL
        verdicts["rebuild_outer_invariant"] = rebuilt_inv.residuals[0] < tolerance
        if complete:
            rebuild_info["joint_invariance"] = max(rebuilt_inv.residuals)
            verdicts["rebuild_joint_invariant"] = rebuilt_inv.verdict
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
            s, phis, w.n_certified, tolerance=max(tolerance, VERDICT_TOL)
        )
        report["steps"]["classify"] = {"doubly_commuting": classification}
        verdicts["classification_consistent"] = classification.equivalence_holds
        step("classify")

    verdicts["all"] = all(verdicts.values())
    report["verdicts"] = verdicts
    # ru_maxrss is in KiB on Linux; it is the peak of the whole process
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    dims = _grade_dims(grade, used_margin)
    if "verify" in steps:
        dims["wold_kept"] = wold.kept_dim
    report["timing"] = {
        "seconds": round(time.monotonic() - start, 3),
        "steps": step_s,
        "verify_checks": check_s,
        "grade_dims": dims,
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
) -> tuple[list[MatrixPolynomial], int]:
    grade = scenario.grade
    used_margin, generators = _prepare(scenario, margin, max_dim)
    s = orbit_span(generators, grade, used_margin)
    w = wandering_subspace(s)
    force = bool(scenario.option("force", True))
    phis = [extract_phi(s, w, axis, force=force) for axis in range(grade.n)]
    nc = w.n_certified
    return [phi.block(nc, nc) for phi in phis], nc


def _cmd_compare(args: argparse.Namespace) -> int:
    scenarios = [load_scenario(path) for path in (args.scenario_a, args.scenario_b)]
    if scenarios[0].grade.n != scenarios[1].grade.n:
        raise GradeError("axis counts differ")
    # Φ tuples capped at different caps are different finite sections, so no
    # certificate relates them
    a, b = ((s.grade.outer_cap, s.grade.inner_cap, s.grade.safe_margin) for s in scenarios)
    if a != b:
        raise GradeError(f"caps (D, N, safe margin) differ: {a} against {b}")
    results = [_certified_phis(sc, args.margin, args.max_dim) for sc in scenarios]
    (phis_a, nc_a), (phis_b, nc_b) = results
    grade = scenarios[0].grade
    cert = coincide(phis_a, phis_b, grade.outer_cap - grade.safe_margin)
    out = {
        "scenario_a": scenarios[0].label,
        "scenario_b": scenarios[1].label,
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
    _check_tolerance(args.tolerance)
    scenarios = builtin_corpus(random_count=args.random)
    codes = []
    for scenario in scenarios:
        try:
            report = run_pipeline(scenario, tolerance=args.tolerance, max_dim=args.max_dim)
            code = 0 if report["verdicts"]["all"] else 2
        except ToolkitError as exc:
            code = exc.exit_code
            if not args.quiet:
                print(f"{_OUTCOME[code]} {scenario.label}: {exc}", file=sys.stderr)
        if not args.quiet:
            print(f"{_OUTCOME[code]} {scenario.label}")
        codes.append(code)
    if not args.quiet:
        print(f"{codes.count(0)}/{len(codes)} scenarios passed, {codes.count(1)} refused")
    return 1 if 1 in codes else max(codes, default=0)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as any bad input does; subcommands share the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polyhardy",
        description="capped invariant-subspace toolkit for vector Hardy spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "--tolerance": {"type": float, "default": VERDICT_TOL},
        "--margin": {"type": int, "default": None},
        "--max-dim": {"type": int, "default": DEFAULT_MAX_DIM},
        "--quiet": {"action": "store_true"},
        "--output": {"type": str, "default": None},
    }

    def flags(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **specs[name])

    def count(text: str) -> int:
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"invalid count value: {text!r}")
        return int(text)

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
    p_self.add_argument("--random", type=count, default=2)
    flags(p_self, "--tolerance", "--max-dim", "--quiet")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"{_PREFIX[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
