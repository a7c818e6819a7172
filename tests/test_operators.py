from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhardy as ph
from polyhardy.errors import GradeError
from polyhardy.operators import monomial_multiples


def test_shift_matrix_moves_basis(g1):
    mz = ph.shift_matrix(g1, 0)
    k1 = ph.shift_matrix(g1, 1)
    src = g1.index_of[(1, 2, 0)]
    assert mz.entries[g1.index_of[(2, 2, 0)], src] == 1.0
    assert k1.entries[g1.index_of[(1, 3, 0)], src] == 1.0
    top = g1.index_of[(5, 2, 0)]
    assert np.all(mz.entries[:, top] == 0)  # overflow truncates to zero


def test_shift_partial_isometry(g1):
    mz = ph.shift_matrix(g1, 0).entries
    gram = mz.conj().T @ mz
    expected = np.diag([1.0 if t[0] < 5 else 0.0 for t in g1.indices])
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
        dense = ph.shift_matrix(grade, axis).entries
        for x in (vec, block):
            assert np.array_equal(ph.shift(grade, axis, x), dense @ x)
            assert np.array_equal(ph.shift_adjoint(grade, axis, x), dense.conj().T @ x)
    # monomial multiples, truncated at the caps, equal products of dense shifts
    monomials = rng.integers(0, grade.inner_cap + 2, size=(6, grade.n + 1))
    multiples = monomial_multiples(grade, vec, monomials)
    for col, mono in zip(multiples.T, monomials):
        image = vec
        for axis, power in enumerate(mono):
            for _ in range(power):
                image = ph.shift_matrix(grade, axis).entries @ image
        assert np.array_equal(col, image)


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
        report = ph.defect_rank(ph.model_tuple(grade))
        assert report.rank == d_e
        sv = report.singular_values
        assert sv[d_e - 1] / max(sv[d_e], 1e-300) > 1e6


def test_defect_operator_shape(g1):
    d = ph.defect_sum([op.entries for op in ph.model_tuple(g1)])
    assert d.shape == (36, 36)
    assert np.linalg.norm(d - d.conj().T, 2) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1), st.integers(min_value=0, max_value=10_000))
def test_shift_isometry_on_interior(axis, seed):
    grade = ph.Grade(1, 4, 4, 1)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=grade.dim) + 1j * rng.normal(size=grade.dim)
    cap = grade.outer_cap if axis == 0 else grade.inner_cap
    for i, t in enumerate(grade.indices):
        if t[axis] == cap:
            vec[i] = 0.0  # keep inside the band where the shift is isometric
    image = ph.shift_matrix(grade, axis).entries @ vec
    assert np.linalg.norm(image) == pytest.approx(np.linalg.norm(vec))
