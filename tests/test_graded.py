"""The graded path of homogeneous generators: the inverse system K_t, the
exact dimension behind the stability flag and the graded Wold check, against
the Hilbert series, the orbit path and presentation changes."""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import polyhardy as ph
from polyhardy import subspace
from polyhardy.cli import run_pipeline
from polyhardy.reporting import stable_part
from .oracles import generic_form, hilbert_coefficients
from .test_cli import SCENARIOS, run_cli
from .test_subspace import NAMED, _stable_close

# (n, D = N, d_E, generator degrees): d_E = 1 with at most n + 1 forms, whose
# Koszul complex is exact; d_E = 2 with at most two generators, which have
# no syzygy
GENERIC = [
    (1, 5, 1, (1,)),
    (1, 5, 1, (2, 3)),
    (1, 5, 1, (1, 1)),
    (2, 4, 1, (1, 2)),
    (2, 4, 1, (2, 2, 2)),
    (2, 4, 1, (1, 1, 1)),
    (3, 3, 1, (1, 1)),
    (3, 3, 1, (1, 2, 2)),
    (3, 3, 1, (1, 1, 1, 1)),
    (1, 5, 2, (1,)),
    (1, 5, 2, (1, 2)),
    (2, 4, 2, (2,)),
    (2, 4, 2, (1, 1)),
    (3, 2, 2, (1,)),
    (3, 2, 2, (1, 2)),
]

# the eight cubic pool members, whose margin-2 slice misses one dimension
CUBIC = [f"n1-d1-{i:02d}" for i in range(5, 48, 6)]


def _numerator(d_e: int, degrees: tuple[int, ...]) -> dict[int, int]:
    """∏(1 − s^d) for d_E = 1, d_E − Σ s^d otherwise."""
    if d_e > 1:
        out = {0: d_e}
        for d in degrees:
            out[d] = out.get(d, 0) - 1
        return out
    out = {0: 1}
    for d in degrees:
        times = dict(out)
        for i, c in out.items():
            times[i + d] = times.get(i + d, 0) - c
        out = times
    return out


def _ideal_columns(generators, grade: ph.Grade, t: int) -> np.ndarray:
    """The z^α·f_j of total degree t as columns over P_t ⊗ E, in the row
    layout of the inverse system."""
    d, count = grade.coeff_dim, grade.n + 1
    size = len(subspace._degree_monomials(count, t)[0]) * d
    columns = []
    for g in generators:
        degree = subspace._total_degree(g)
        for alpha in itertools.product(range(t + 1), repeat=count):
            if sum(alpha) + degree != t:
                continue
            column = np.zeros(size, dtype=complex)
            for key, c in g.coeffs.items():
                exps = np.array([key.outer, *key.inner]) + alpha
                column[subspace._degree_index(t, exps) * d + key.coord] = c
            columns.append(column)
    return np.array(columns).reshape(-1, size).T


@pytest.mark.parametrize("n, cap, d_e, degrees", GENERIC, ids=str)
def test_inverse_system_dims_follow_the_hilbert_series(n, cap, d_e, degrees):
    # for generic generators dim K_t is a Hilbert-series coefficient, an
    # integer read off no singular value; K_t is orthonormal and orthogonal
    # to every z^α·f_j, so with those dims it is all of I_t^⊥
    grade = ph.Grade(n, cap, cap, d_e)
    rng = np.random.default_rng(100 * n + 10 * d_e + sum(degrees))
    generators = [generic_form(grade, d, rng) for d in degrees]
    system = subspace.inverse_system(generators, grade)
    top = cap + n * cap
    expected = hilbert_coefficients(_numerator(d_e, degrees), n + 1, top)
    assert [k.shape[1] for k in system] == expected
    for t, k in enumerate(system):
        dense = k.toarray()
        assert np.abs(dense.conj().T @ dense - np.eye(k.shape[1])).max(initial=0.0) < 1e-12
        ideal = _ideal_columns(generators, grade, t)
        if ideal.size and k.shape[1]:
            scale = np.abs(ideal).max()
            assert np.abs(dense.conj().T @ ideal).max() < 1e-12 * scale * ideal.shape[0]


def _assert_paths_agree(scenario: ph.Scenario) -> bool:
    """The graded stability count and Wold check against the margin + 1
    probe and the orbit path's Wold check, which stay callable; returns the
    stable flag. A plain orbit of the same generators gets the same graded
    Wold report."""
    grade = scenario.grade
    generators = [ph.parse_polynomial(t, grade) for t in scenario.generators]
    s, stable = ph.orbit_stability(generators, grade, int(scenario.option("margin", 2)))
    system = s.provenance.graded_system
    assert system is not None
    probe = subspace._probe_dim(s)
    assert subspace._exact_dim(grade, system) == probe
    assert stable == (probe == s.dim)
    graded = ph.wold_reconstruction(s)
    plain = ph.orbit_span(generators, grade, s.provenance.margin)
    assert plain.provenance == s.provenance
    assert ph.wold_reconstruction(plain) == graded
    residual, _ = subspace._orbit_wold(grade, s.provenance.generators)
    assert graded.verdict == (residual < graded.tolerance)
    assert graded.residual <= 1e-13
    return stable


@pytest.mark.parametrize("path", NAMED, ids=lambda p: p.stem)
def test_graded_path_agrees_on_named_scenarios(path):
    assert _assert_paths_agree(ph.load_scenario(path))


@pytest.mark.parametrize(
    "label", ["n1-d1-00", "n1-d2-00", "n2-lin-00", "n2-cmp-00", *CUBIC]
)
def test_graded_path_agrees_on_pool_members(pool_member, label):
    # the cubic members read 26 at margin 2 and 27 exactly, as the probe does
    assert _assert_paths_agree(pool_member(label)["scenario"]) == (label not in CUBIC)


def test_inhomogeneous_input_keeps_the_orbit_path(capsys, tmp_path):
    # 2 + z1 has no grading: no inverse system, the margin + 1 probe, and
    # the Wold verdict fails as on the orbit path
    grade = ph.Grade(1, 5, 5, 1)
    s, stable = ph.orbit_stability([ph.parse_polynomial("2 + z1", grade)], grade, 2)
    assert s.provenance.graded_system is None
    assert stable and s.dim == 30
    report = ph.wold_reconstruction(s)
    assert not report.verdict
    assert 2.5e-3 < report.residual < 3.5e-3
    unit = ph.load_scenario(SCENARIOS / "z-minus-z1.json")
    path = tmp_path / "two-plus-z1.json"
    ph.dump_scenario(dataclasses.replace(unit, generators=("2 + z1",)), path)
    code, _, _ = run_cli(["run", path, "--quiet"], capsys)
    assert code == 2


# presentation changes of one subspace: a generator scaled by 1+2i, the
# order reversed, a generator duplicated, a redundant multiple added
VARIANTS = {
    "z-minus-z1": [
        ("(1+2i)*z - (1+2i)*z1",),
        ("z - z1", "z - z1"),
        ("z - z1", "z^2 - z*z1"),
    ],
    "pair-n2": [
        ("(1+2i)*z - (1+2i)*z1", "z - z2"),
        ("z - z2", "z - z1"),
        ("z - z1", "z - z2", "z - z2"),
        ("z - z1", "z - z2", "z1 - z2"),
    ],
}


def _graded_run(scenario: ph.Scenario) -> tuple[list[int], dict]:
    grade = scenario.grade
    generators = [ph.parse_polynomial(t, grade) for t in scenario.generators]
    s, _ = ph.orbit_stability(generators, grade, 2)
    report = stable_part(run_pipeline(scenario))
    del report["generators"]
    return [k.shape[1] for k in s.provenance.graded_system], report


@pytest.mark.parametrize(
    "label, generators",
    [(label, gens) for label, variants in VARIANTS.items() for gens in variants],
)
def test_graded_path_ignores_the_presentation(label, generators):
    # dims, stable and every verdict exactly; Θ, Φ and every other number to
    # 1e-12
    scenario = ph.load_scenario(SCENARIOS / f"{label}.json")
    dims, report = _graded_run(scenario)
    other_dims, other = _graded_run(dataclasses.replace(scenario, generators=generators))
    assert other_dims == dims
    assert other["flags"] == report["flags"] == {"margin_stable": True}
    assert other["verdicts"] == report["verdicts"]
    _stable_close(report, other)


def test_z_alone_solves_in_small_blocks(monkeypatch):
    # z alone at n=3 D=N=3: dim K_t reaches 91, but every block of the
    # constraint stack ties at most the n + 1 backward shifts of one monomial
    grade = ph.Grade(3, 3, 3, 1)
    generators = [ph.parse_polynomial("z", grade)]
    widths = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        widths.append(a.shape[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    system = subspace.inverse_system(generators, grade)
    monkeypatch.undo()
    assert widths and max(widths) <= grade.n + 1
    assert [k.shape[1] for k in system] == hilbert_coefficients({0: 1, 1: -1}, 4, 12)
    unit = ph.load_scenario(SCENARIOS / "z.json")
    scenario = dataclasses.replace(unit, grade=grade)
    assert _assert_paths_agree(scenario)
