from __future__ import annotations

import ast
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhardy as ph
from polyhardy import cli, operators
from polyhardy.errors import GradeError
from polyhardy.operators import VERDICT_TOL, Coo, hstack, monomial_multiples

from .oracles import dense_order, dense_position


def test_shift_matrix_moves_basis(g1):
    mz = ph.shift_matrix(g1, 0)
    k1 = ph.shift_matrix(g1, 1)
    pos = dense_position(g1)
    src = pos[(1, 2, 0)]
    assert mz[pos[(2, 2, 0)], src] == 1.0
    assert k1[pos[(1, 3, 0)], src] == 1.0
    top = pos[(5, 2, 0)]
    assert np.all(mz[:, top] == 0)  # overflow truncates to zero


def test_shift_partial_isometry(g1):
    mz = ph.shift_matrix(g1, 0)
    gram = mz.conj().T @ mz
    expected = np.diag([1.0 if t[0] < 5 else 0.0 for t in dense_order(g1)])
    assert np.array_equal(gram, expected)


@pytest.mark.parametrize(
    "grade",
    [ph.Grade(n, 4 - n, 5 - n, d_e) for n in (1, 2, 3) for d_e in (1, 2)],
    ids=lambda g: f"n{g.n}-dE{g.coeff_dim}",
)
def test_gathers_equal_shift_matrix(grade):
    rng = np.random.default_rng(grade.dim)
    vec = rng.normal(size=grade.dim) + 1j * rng.normal(size=grade.dim)
    block = rng.normal(size=(grade.dim, 3)) + 1j * rng.normal(size=(grade.dim, 3))
    for axis in range(grade.n + 1):
        dense = ph.shift_matrix(grade, axis)
        # bit for bit the matrix with a one at each (dst, src) of the map
        src, dst = grade.shift_map(axis)
        scatter = np.zeros((grade.dim, grade.dim), dtype=complex)
        scatter[dst, src] = 1.0
        assert dense.dtype == scatter.dtype and dense.tobytes() == scatter.tobytes()
        for x in (vec, block):
            assert np.array_equal(ph.shift(grade, axis, x), dense @ x)
            assert np.array_equal(ph.shift_adjoint(grade, axis, x), dense.conj().T @ x)
    # monomial multiples, truncated at the caps, equal products of dense shifts
    monomials = rng.integers(0, grade.inner_cap + 2, size=(6, grade.n + 1))
    multiples = monomial_multiples(grade, vec, monomials).toarray()
    for col, mono in zip(multiples.T, monomials):
        image = vec
        for axis, power in enumerate(mono):
            for _ in range(power):
                image = ph.shift_matrix(grade, axis) @ image
        assert np.array_equal(col, image)


def test_triplet_operations_equal_their_dense_forms_bit_for_bit():
    grade = ph.Grade(2, 3, 3, 1)
    rng = np.random.default_rng(9)

    def random_pair(width):
        entries = rng.normal(size=(grade.dim, width)) + 1j * rng.normal(size=(grade.dim, width))
        dense = np.where(rng.random((grade.dim, width)) < 0.3, entries, 0)
        r, c = np.nonzero(dense)
        order = rng.permutation(r.size)  # entries in any order
        return dense, Coo(dense.shape, r[order], c[order], dense[r[order], c[order]])

    (a, ta), (b, tb) = random_pair(4), random_pair(3)
    index = rng.permutation(grade.dim)[:10]
    pairs = [(ta, a), (hstack([ta, tb]), np.hstack([a, b])), (ta.take_rows(index), a[index])]
    pairs += [(ph.shift(grade, axis, ta), ph.shift(grade, axis, a)) for axis in range(3)]
    for triplet, dense in pairs:
        got = triplet.toarray()
        assert got.shape == dense.shape and got.dtype == dense.dtype
        assert got.tobytes() == dense.tobytes()


def test_axis_validation(g1):
    with pytest.raises(GradeError):
        ph.shift_matrix(g1, 2)


def test_model_tuple_commutes():
    # distinct-variable shifts commute and doubly commute exactly, truncation
    # included: both orders drop the same entries
    grade = ph.Grade(2, 3, 3, 1)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(grade.dim, 3)) + 1j * rng.normal(size=(grade.dim, 3))
    for a, b in itertools.permutations(range(grade.n + 1), 2):
        ab = ph.shift(grade, a, ph.shift(grade, b, x))
        assert np.array_equal(ab, ph.shift(grade, b, ph.shift(grade, a, x)))
        adj = ph.shift_adjoint(grade, a, ph.shift(grade, b, x))
        assert np.array_equal(adj, ph.shift(grade, b, ph.shift_adjoint(grade, a, x)))


def test_defect_rank_matches_coeff_dim():
    for d_e in (1, 2, 3):
        grade = ph.Grade(1, 4, 4, d_e)
        report = ph.defect_rank(grade, ph.model_tuple(grade))
        assert report.rank == d_e
        sv = report.singular_values
        assert sv[d_e - 1] / max(sv[d_e], 1e-300) > 1e6
    with pytest.raises(GradeError):
        ph.defect_rank(ph.Grade(1, 3, 3, 1), ph.model_tuple(grade))


def test_defect_operator_shape(g1):
    d = ph.defect_sum(ph.model_tuple(g1), slice(None))
    assert d.shape == (36, 36)
    assert np.linalg.norm(d - d.conj().T, 2) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1), st.integers(min_value=0, max_value=10_000))
def test_shift_isometry_on_interior(axis, seed):
    grade = ph.Grade(1, 4, 4, 1)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=grade.dim) + 1j * rng.normal(size=grade.dim)
    cap = grade.outer_cap if axis == 0 else grade.inner_cap
    for i, t in enumerate(dense_order(grade)):
        if t[axis] == cap:
            vec[i] = 0.0  # keep inside the band where the shift is isometric
    image = ph.shift_matrix(grade, axis) @ vec
    assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(vec))


def _spectral_cases():
    rng = np.random.default_rng(4)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    square = cx(6, 6)
    return {
        "tall": cx(9, 4),
        "wide": cx(3, 8),
        "square": square,
        "rank-one": np.outer(cx(7), cx(5).conj()),
        "zero": np.zeros((3, 4), dtype=complex),
        "empty": np.zeros((0, 3), dtype=complex),
        "tiny": 1e-200 * square,
        "huge": 1e200 * square,
    }


@pytest.mark.parametrize("case", list(_spectral_cases()))
def test_spectral_norm_matches_the_svd_norm(case):
    a = _spectral_cases()[case]
    want = float(np.linalg.norm(a, 2)) if a.size else 0.0
    assert abs(ph.spectral_norm(a) - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "a",
    [[[1e-310 + 1e-310j]], [[5e-324 + 0j]], [[5e-324, 1e-320j], [0, 3e-322]]],
    ids=["subnormal-complex", "smallest-subnormal", "subnormal-mixed"],
)
def test_spectral_norm_of_subnormal_input(a):
    # 1/scale overflows for a largest modulus below about 5.6e-309
    a = np.array(a, dtype=complex)
    want = float(np.linalg.norm(a, 2))
    assert ph.spectral_norm(a) == pytest.approx(want, rel=1e-13, abs=1e-323)


POLICY = (
    "RANK_CUT",
    "SUPPORT_CUT",
    "PIVOT_CUT",
    "ORTHONORMAL_TOL",
    "VERDICT_TOL",
    "CERTIFICATE_TOL",
    "ANGLE_TOL",
)


def test_every_small_float_literal_is_a_policy_assignment():
    """Every cutoff and default tolerance is named once, in the policy block
    of ``operators``: a float literal in (0, 1e-6] anywhere in the package is
    the value of one of those assignments, and no other module assigns them."""
    policy_values, small, assigned = set(), [], []
    for path in sorted(Path(operators.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in POLICY for t in node.targets
            ):
                assigned.append((path.name, node.targets[0].id))
                if path.name == "operators.py" and node in tree.body:
                    policy_values.add(id(node.value))
            if isinstance(node, ast.Constant) and type(node.value) is float:
                if 0 < node.value <= 1e-6:
                    small.append((path.name, node.lineno, node))
    assert sorted(assigned) == sorted(("operators.py", name) for name in POLICY)
    assert [(f, line) for f, line, node in small if id(node) not in policy_values] == []
    assert len(small) == len(POLICY)


def test_default_verdict_tolerance_is_the_policy_value():
    def default(func):
        return inspect.signature(func).parameters["tolerance"].default

    assert cli.build_parser().parse_args(["run", "x.json"]).tolerance == VERDICT_TOL
    assert default(cli.run_pipeline) == VERDICT_TOL
    assert default(ph.check_invariant) == VERDICT_TOL
