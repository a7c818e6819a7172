from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyhardy as ph
from polyhardy.errors import GradeError

from .oracles import dense_order


def test_grade_dims():
    assert ph.Grade(1, 5, 5, 1).dim == 36
    assert ph.Grade(2, 4, 4, 3).dim == 5 * 25 * 3
    assert ph.Grade(1, 5, 5, 1).inner_slot_dim == 6
    assert ph.Grade(2, 4, 4, 2).inner_slot_dim == 50


def test_grade_validation():
    with pytest.raises(GradeError):
        ph.Grade(0, 4, 4, 1)
    with pytest.raises(GradeError):
        ph.Grade(1, -1, 4, 1)
    with pytest.raises(GradeError):
        ph.Grade(1, 4, 4, 0)
    with pytest.raises(GradeError):
        ph.Grade(1, 4, 4, 1, -1)


def test_indices_lexicographic(g1):
    # the dense order is the lexicographic order of (a, b1.., e), and
    # position is its inverse, refusing indices off the caps
    for grade in (g1, ph.Grade(2, 2, 3, 2), ph.Grade(3, 1, 2, 3)):
        order = dense_order(grade)
        assert grade.exponents.tolist() == [list(t) for t in order]
        assert order == sorted(order)
        for i, t in enumerate(order):
            assert grade.position(ph.MultiIndex(t[0], t[1:-1], t[-1])) == i
        n = grade.n
        for outside in (
            ph.MultiIndex(grade.outer_cap + 1, (0,) * n),
            ph.MultiIndex(0, (grade.inner_cap + 1,) + (0,) * (n - 1)),
            ph.MultiIndex(0, (0,) * n, grade.coeff_dim),
            ph.MultiIndex(0, (0,) * (n + 1)),
        ):
            with pytest.raises(GradeError):
                grade.position(outside)


def test_safe_mask_counts():
    g = ph.Grade(1, 5, 5, 1)
    assert int(g.safe_mask.sum()) == 25
    g2 = ph.Grade(2, 4, 4, 3, 1)
    assert int(g2.safe_mask.sum()) == 4 * 16 * 3
    wide = ph.Grade(1, 5, 5, 1, 2)
    assert int(wide.safe_mask.sum()) == 16


def test_multi_index_within(g1):
    assert ph.MultiIndex(5, (5,), 0).within(g1)
    assert not ph.MultiIndex(6, (0,), 0).within(g1)
    assert not ph.MultiIndex(0, (6,), 0).within(g1)
    assert not ph.MultiIndex(0, (0,), 1).within(g1)


def test_hardy_vector_basics(g1):
    f = ph.HardyVector(g1, {ph.MultiIndex(1, (0,), 0): 2.0, ph.MultiIndex(0, (1,), 0): 0.0})
    assert len(f.coeffs) == 1  # zero entries stripped
    assert f.norm() == 2.0
    assert f.outer_degree() == 1
    assert f.inner_degrees() == (0,)
    dense = f.to_dense()
    assert dense.shape == (36,)
    back = ph.HardyVector.from_dense(g1, dense)
    assert back == f


def test_hardy_vector_cap_validation(g1):
    with pytest.raises(GradeError):
        ph.HardyVector(g1, {ph.MultiIndex(6, (0,), 0): 1.0})


def test_inner_product_orthonormal(g1):
    e1 = ph.hardy_basis_vector(g1, ph.MultiIndex(2, (3,), 0))
    e2 = ph.hardy_basis_vector(g1, ph.MultiIndex(3, (2,), 0))
    assert ph.inner_product(e1, e1) == 1.0
    assert ph.inner_product(e1, e2) == 0.0


def test_inner_product_conjugate_symmetry(g1):
    f = ph.HardyVector(g1, {ph.MultiIndex(1, (1,), 0): 1 + 2j})
    g = ph.HardyVector(g1, {ph.MultiIndex(1, (1,), 0): 3 - 1j})
    assert ph.inner_product(f, g) == np.conj(ph.inner_product(g, f))
    other = ph.Grade(1, 4, 4, 1)
    with pytest.raises(GradeError):
        ph.inner_product(f, ph.HardyVector(other, {}))


def test_reindex_round_trip():
    grade = ph.Grade(2, 3, 3, 2)
    poly = {
        ph.PolydiscIndex((1, 2, 0), 1): 0.5 - 0.25j,
        ph.PolydiscIndex((0, 3, 3), 0): 2.0,
    }
    f = ph.reindex_to_disc(poly, grade)
    assert f.coeffs[ph.MultiIndex(1, (2, 0), 1)] == 0.5 - 0.25j
    back = ph.reindex_to_polydisc(f)
    assert back == poly


def test_reindex_rejects_out_of_cap():
    grade = ph.Grade(1, 2, 2, 1)
    with pytest.raises(GradeError):
        ph.reindex_to_disc({ph.PolydiscIndex((3, 0), 0): 1.0}, grade)
    with pytest.raises(GradeError):
        ph.reindex_to_disc({ph.PolydiscIndex((0, 0, 0), 0): 1.0}, grade)


def test_dense_matrix(g1):
    vs = [ph.hardy_basis_vector(g1, ph.MultiIndex(a, (0,), 0)) for a in range(3)]
    mat = ph.dense_matrix(g1, vs)
    assert mat.shape == (36, 3)
    assert np.allclose(mat.conj().T @ mat, np.eye(3))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False), min_size=36, max_size=36))
def test_dense_round_trip_property(values):
    grade = ph.Grade(1, 5, 5, 1)
    dense = np.array(values, dtype=complex)
    f = ph.HardyVector.from_dense(grade, dense)
    assert np.array_equal(f.to_dense(), dense)
    assert ph.inner_product(f, f) == pytest.approx(np.sum(np.abs(dense) ** 2))
