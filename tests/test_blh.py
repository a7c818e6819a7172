from __future__ import annotations

import numpy as np
import pytest

import polyhardy as ph
from polyhardy.blh import degree_residuals
from polyhardy.errors import FlaggedWanderingError, GradeError, NotInvariantError

from .oracles import wold_multiplication_reference


def test_matrix_polynomial_validation():
    with pytest.raises(GradeError):
        ph.MatrixPolynomial(())
    with pytest.raises(GradeError):
        ph.MatrixPolynomial((np.zeros(3),))
    with pytest.raises(GradeError):
        ph.MatrixPolynomial((np.zeros((2, 2)), np.zeros((3, 2))))
    p = ph.MatrixPolynomial((np.eye(2), 2 * np.eye(2)))
    assert p.degree == 1
    assert p.shape == (2, 2)
    assert np.allclose(p.evaluate(0.5), 2 * np.eye(2))


def test_convolution_matches_pointwise():
    rng = np.random.default_rng(1)
    a = ph.MatrixPolynomial(tuple(rng.normal(size=(2, 3)) for _ in range(3)))
    b = ph.MatrixPolynomial(tuple(rng.normal(size=(3, 2)) for _ in range(2)))
    prod = ph.convolve(a, b)
    for w in (0.3, -0.7 + 0.2j):
        assert np.allclose(prod.evaluate(w), a.evaluate(w) @ b.evaluate(w))


def test_block_and_degree_residuals():
    a = ph.MatrixPolynomial((np.eye(2), 3 * np.eye(2)))
    assert [c.shape for c in a.block(1).coeffs] == [(1, 2), (1, 2)]
    assert [c.shape for c in a.block(cols=1).coeffs] == [(2, 1), (2, 1)]
    assert a.block().coeffs[1].tolist() == a.coeffs[1].tolist()
    # past a polynomial's degree its coefficients are zero
    zero = ph.MatrixPolynomial((np.zeros((2, 2)),))
    assert degree_residuals(a, zero, 2) == (1.0, 3.0, 0.0)


def test_adjoint_convolution_degree_zero():
    rng = np.random.default_rng(2)
    a = ph.MatrixPolynomial(tuple(rng.normal(size=(4, 2)) for _ in range(3)))
    out = ph.adjoint_convolution(a, a)
    expected = sum(c.conj().T @ c for c in a.coeffs)
    assert np.allclose(out.coeffs[0], expected)


def test_inner_slot_shift_nilpotent(g1):
    k = ph.inner_slot_shift(g1, 0)
    assert k.shape == (6, 6)
    assert np.all(np.linalg.matrix_power(k, 6) == 0)
    assert k[1, 0] == 1.0
    kp = ph.kappa_polynomial(g1, 0)
    assert kp.degree == 0
    with pytest.raises(GradeError):
        ph.inner_slot_shift(g1, 1)


def test_theta_whole_space(corpus_artifacts):
    theta = corpus_artifacts["one"]["theta"]
    u = theta.coeffs[0]
    assert np.linalg.norm(u.conj().T @ u - np.eye(6), 2) < 1e-12
    for coeff in theta.coeffs[1:]:
        assert np.all(coeff == 0)


def test_theta_difference_structure(corpus_artifacts):
    """Certified wandering columns of orbit(z - z1) concentrate on two
    adjacent slots with the classical norm split (j+1)/(j+2)."""
    art = corpus_artifacts["z-minus-z1"]
    theta = art["theta"]
    for j in range(art["w"].n_certified):
        c0 = theta.coeffs[0][:, j]
        c1 = theta.coeffs[1][:, j]
        assert np.nonzero(np.abs(c0) > 1e-9)[0].tolist() == [j + 1]
        assert np.nonzero(np.abs(c1) > 1e-9)[0].tolist() == [j]
        assert np.linalg.norm(c0) ** 2 == pytest.approx((j + 1) / (j + 2), abs=1e-12)


def test_flagged_refusal(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    with pytest.raises(FlaggedWanderingError):
        ph.extract_theta(art["s"], art["w"])
    with pytest.raises(FlaggedWanderingError):
        ph.extract_phi(art["s"], art["w"], 0)


def test_extract_grade_mismatch(corpus_artifacts):
    a = corpus_artifacts["z-minus-z1"]
    b = corpus_artifacts["pair-n2"]
    with pytest.raises(GradeError):
        ph.extract_theta(a["s"], b["w"], force=True)


def test_extract_phi_invariance_precheck(corpus_artifacts):
    s = corpus_artifacts["z-minus-z1"]["s"]
    w_other = corpus_artifacts["z"]["w"]
    with pytest.raises(NotInvariantError):
        ph.extract_phi(s, w_other, 0, force=True)


PHI_ROUTINES = {
    "inner_slot_shift": lambda art, axis: ph.inner_slot_shift(art["grade"], axis),
    "extract_phi": lambda art, axis: ph.extract_phi(art["s"], art["w"], axis, force=True),
    "extract_phi_via_theta": lambda art, axis: ph.extract_phi_via_theta(
        art["s"], art["w"], axis, force=True
    ),
    "wold_multiplication_consistency": lambda art, axis: ph.wold_multiplication_consistency(
        art["s"], art["w"], art["phis"][0], axis
    ),
}


@pytest.mark.parametrize("routine", sorted(PHI_ROUTINES))
@pytest.mark.parametrize("axis", [-1, 1])
def test_phi_routines_reject_an_inner_axis_out_of_range(corpus_artifacts, routine, axis):
    # z-minus-z1 has n = 1: axis −1 would read the outer shift M_z, and
    # axis 1 lies past the last inner variable
    art = corpus_artifacts["z-minus-z1"]
    with pytest.raises(GradeError, match="inner axis out of range"):
        PHI_ROUTINES[routine](art, axis)


def test_phi_shift_action(corpus_artifacts):
    """For orbit(z - z1) the inner shift acts on certified wandering
    coordinates as a weighted one-step shift at degree zero."""
    art = corpus_artifacts["z-minus-z1"]
    phi0 = art["phis"][0].coeffs[0]
    nc = art["w"].n_certified
    for j in range(nc - 1):
        col = phi0[:nc, j]
        assert np.nonzero(np.abs(col) > 1e-9)[0].tolist() == [j + 1]


def test_phi_routes_agree(corpus_artifacts):
    for label in ["one", "z-minus-z1", "pair-n2", "random-04"]:
        art = corpus_artifacts[label]
        nc = art["w"].n_certified
        for axis, direct in enumerate(art["phis"]):
            via = ph.extract_phi_via_theta(art["s"], art["w"], axis, force=True)
            worst = max(
                float(np.abs(d[:nc, :nc] - v[:nc, :nc]).max())
                for d, v in zip(direct.coeffs, via.coeffs)
            )
            assert worst < 1e-12, label


def test_intertwining_verified(corpus_artifacts):
    for label in ["one", "z", "z1", "z-minus-z1", "z2-minus-zz1"]:
        art = corpus_artifacts[label]
        grade = art["grade"]
        trusted = grade.outer_cap - grade.safe_margin
        report = ph.verify_intertwining(
            ph.kappa_polynomial(grade, 0),
            art["theta"],
            art["phis"][0],
            trusted,
            n_certified=art["w"].n_certified,
        )
        assert report.verdict, label
        assert len(report.residuals) == trusted + 1


def test_isometry_certified(corpus_artifacts):
    for label in ["one", "z-minus-z1", "random-09"]:
        art = corpus_artifacts[label]
        report = ph.is_isometric_multiplier(art["theta"], art["w"].n_certified)
        assert report.verdict, label
    halved = ph.MatrixPolynomial(
        tuple(0.5 * c for c in corpus_artifacts["z-minus-z1"]["theta"].coeffs)
    )
    assert not ph.is_isometric_multiplier(halved).verdict


def test_multiplier_commutation_pair(corpus_artifacts):
    art = corpus_artifacts["pair-n2"]
    grade = art["grade"]
    report = ph.multiplier_commutation(
        art["phis"][0],
        art["phis"][1],
        grade.outer_cap - grade.safe_margin,
        n_certified=art["w"].n_certified,
    )
    assert report.verdict
    assert report.max_residual < 1e-10


def test_wold_multiplication_consistency(corpus_artifacts):
    for label in ["z-minus-z1", "z2-minus-zz1", "random-02"]:
        art = corpus_artifacts[label]
        report = ph.wold_multiplication_consistency(
            art["s"], art["w"], art["phis"][0], 0
        )
        assert report.verdict, label
        assert report.residual < 1e-10
        assert report.superdiagonal_residual < 1e-10
    # the masked maxima equal the entry-by-entry loops bit for bit
    for label in ["z-minus-z1", "one", "pair-n2", "random-02"]:
        art = corpus_artifacts[label]
        for axis, phi in enumerate(art["phis"]):
            report = ph.wold_multiplication_consistency(art["s"], art["w"], phi, axis)
            expected = wold_multiplication_reference(art["s"], art["w"], phi, axis)
            assert (report.residual, report.superdiagonal_residual) == expected, label
