"""The graded path of homogeneous generators: the inverse system K_t, the
exact dimension behind the stability flag and the graded Wold check, against
the Hilbert series, the orbit path and presentation changes; and the pieces
the inverse system is solved on, against the dense stack of each degree."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import polyhardy as ph
from polyhardy import graded, subspace
from polyhardy.cli import run_pipeline
from polyhardy.reporting import stable_part
from .oracles import backward_shift_stack, generic_form, hilbert_coefficients
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
    size = len(graded._degree_monomials(count, t)[0]) * d
    columns = []
    for g in generators:
        degree = graded._total_degree(g)
        for alpha in itertools.product(range(t + 1), repeat=count):
            if sum(alpha) + degree != t:
                continue
            column = np.zeros(size, dtype=complex)
            for key, c in g.coeffs.items():
                exps = np.array([key.outer, *key.inner]) + alpha
                column[graded._degree_index(t, exps) * d + key.coord] = c
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
    system = graded.inverse_system(generators, grade)
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
    assert graded._exact_dim(grade, system) == probe
    assert stable == (probe == s.dim)
    wold = ph.wold_reconstruction(s)
    plain = ph.orbit_span(generators, grade, s.provenance.margin)
    assert plain.provenance == s.provenance
    assert ph.wold_reconstruction(plain) == wold
    residual, _ = subspace._orbit_wold(grade, s.provenance.generators)
    assert wold.verdict == (residual < wold.tolerance)
    assert wold.residual <= 1e-13
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
    system = graded.inverse_system(generators, grade)
    monkeypatch.undo()
    assert widths and max(widths) <= grade.n + 1
    # the singleton pieces have few shapes per degree, each one stacked SVD
    assert len(widths) <= 200
    assert [k.shape[1] for k in system] == hilbert_coefficients({0: 1, 1: -1}, 4, 12)
    unit = ph.load_scenario(SCENARIOS / "z.json")
    scenario = dataclasses.replace(unit, grade=grade)
    assert _assert_paths_agree(scenario)


def _generators(label: str, pool_member) -> tuple[ph.Grade, list]:
    """The cleaned generators of a named scenario or pool member."""
    if label in {path.stem for path in NAMED}:
        scenario = ph.load_scenario(SCENARIOS / f"{label}.json")
    else:
        scenario = pool_member(label)["scenario"]
    grade = scenario.grade
    generators = [ph.parse_polynomial(t, grade) for t in scenario.generators]
    return grade, list(ph.orbit_span(generators, grade, 2).provenance.generators)


# the named scenarios and one member of each pool shape
PIECED = [path.stem for path in NAMED] + ["n1-d1-05", "n1-d2-02", "n2-lin-03", "n2-cmp-00"]


@pytest.mark.parametrize("label", PIECED)
def test_every_multiple_lies_in_one_piece(pool_member, label):
    grade, generators = _generators(label, pool_member)
    system = graded.inverse_system(generators, grade)
    for t, k in enumerate(system):
        pieces = k.pieces
        for g in generators:
            for column in _ideal_columns([g], grade, t).T:
                assert np.unique(pieces[np.flatnonzero(column)]).size == 1


@pytest.mark.parametrize("label", PIECED)
def test_stack_components_are_the_pieces_with_unknowns(pool_member, label):
    # each pattern component of the dense degree-t stack [stack; lift] lies
    # in one piece, and there is one per piece whose pairs carry unknowns
    grade, generators = _generators(label, pool_member)
    system = graded.inverse_system(generators, grade)
    shifts = graded._shifts(generators, grade)
    count, d = grade.n + 1, grade.coeff_dim
    for t in range(1, len(system)):
        low = system[t - 1]
        if not low.shape[1]:
            break
        own = [g for g in generators if graded._total_degree(g) == t]
        duals = [_ideal_columns([g], grade, t)[:, 0] for g in own]
        stack, keys, lift = backward_shift_stack(low.toarray(), count, d, t, duals)
        rows, cols = np.nonzero(np.vstack([stack, lift]))
        m, n = stack.shape[0] + lift.shape[0], lift.shape[1]
        _, labels = subspace._components(rows, cols, m, n)
        row_piece = system[t].pieces[np.concatenate([keys, np.arange(lift.shape[0])])]
        with_unknowns = np.unique(labels[m:][np.abs(np.vstack([stack, lift])).sum(axis=0) > 0])
        carrying = set()
        for component in with_unknowns:
            piece = np.unique(row_piece[labels[:m] == component])
            assert piece.size == 1
            carrying.add(int(piece[0]))
        assert len(carrying) == with_unknowns.size
        pairs = slice(shifts.pair_at[t], shifts.pair_at[t + 1])
        wide = low.widths[shifts.pair_q[pairs]] > 0
        assert carrying == set(shifts.pair_piece[pairs][wide].tolist())
        # K_t has columns only on pieces that carry unknowns
        assert set(np.flatnonzero(system[t].widths).tolist()) <= carrying


@pytest.mark.parametrize("label", ["one", "full-rank2", "n1-d1-00"])
def test_recursion_stops_at_the_first_empty_degree(monkeypatch, pool_member, label):
    # after the first empty K_t no degree is solved and no LAPACK routine
    # runs; every later K_t is empty with the rows of P_t ⊗ E
    grade, generators = _generators(label, pool_member)
    solving, solved, calls = [None], [], []
    solve = graded._solve_degree

    def spy_solve(shifts, t, *args):
        solving[0] = t
        solved.append(t)
        out = solve(shifts, t, *args)
        solving[0] = None
        return out

    def spy(routine):
        def recorded(*args, **kwargs):
            calls.append(solving[0])
            return routine(*args, **kwargs)
        return recorded

    monkeypatch.setattr(graded, "_solve_degree", spy_solve)
    for name in ("svd", "eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, spy(getattr(np.linalg, name)))
    system = graded.inverse_system(generators, grade)
    monkeypatch.undo()
    dims = [k.shape[1] for k in system]
    first = dims.index(0)
    # degree 0 is solved only when a generator has degree 0
    assert solved == list(range(0 if label in ("one", "full-rank2") else 1, first + 1))
    assert calls and None not in calls and max(calls) == first
    assert first == (0 if label in ("one", "full-rank2") else 1)
    for t, k in enumerate(system[first:], first):
        size = math.comb(t + grade.n, grade.n) * grade.coeff_dim
        assert k.shape == (size, 0) and k.toarray().shape == (size, 0)
