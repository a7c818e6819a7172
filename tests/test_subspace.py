from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_array

import polyhardy as ph
from polyhardy.errors import (
    DegenerateInputError,
    GradeError,
    NotInvariantError,
    NotIsometricError,
)
from polyhardy.subspace import _matmul, block_null, block_span, null_columns
from .oracles import orbit_reference, wandering_reference, wold_residual_dense

GOLDEN_DIMS = {
    # label: (orbit dim, orbit safe columns, wandering dim, certified)
    "one": (36, 25, 6, 5),
    "z": (30, 20, 6, 5),
    "z1": (30, 20, 5, 4),
    "z-minus-z1": (25, 16, 5, 4),
    "z2-minus-zz1": (20, 12, 4, 3),
    "pair-n2": (112, 54, 20, 12),
}


def test_golden_dimensions(corpus_artifacts):
    for label, (s_dim, s_safe, w_dim, w_cert) in GOLDEN_DIMS.items():
        art = corpus_artifacts[label]
        assert art["s"].dim == s_dim, label
        assert art["s"].n_certified == s_safe, label
        assert art["w"].dim == w_dim, label
        assert art["w"].n_certified == w_cert, label


def test_orbit_matches_reference(corpus_artifacts):
    for label in ["one", "z", "z1", "z-minus-z1", "z2-minus-zz1", "random-00", "random-07"]:
        art = corpus_artifacts[label]
        ref = orbit_reference(art["generators"], art["grade"])
        assert ref.shape[1] == art["s"].dim, label
        assert ph.max_principal_angle_sine(art["s"].columns, ref) < 1e-10, label


def test_wandering_matches_reference(corpus_artifacts):
    for label in ["z", "z-minus-z1", "z2-minus-zz1"]:
        art = corpus_artifacts[label]
        mz = ph.shift_matrix(art["grade"], 0).entries
        ref = wandering_reference(art["s"].columns, mz)
        assert ref.shape[1] == art["w"].dim, label
        assert ph.max_principal_angle_sine(art["w"].columns, ref) < 1e-10, label


def test_wandering_inside_subspace(corpus_artifacts):
    for label in ["one", "z-minus-z1", "pair-n2", "random-03"]:
        art = corpus_artifacts[label]
        s, w = art["s"], art["w"]
        residual = w.columns - s.columns @ (s.columns.conj().T @ w.columns)
        assert np.linalg.norm(residual, 2) < 1e-10, label


def test_wandering_orthogonal_to_shifted(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    mz = ph.shift_matrix(art["grade"], 0).entries
    shifted = mz @ art["s"].columns
    overlap = np.linalg.norm(shifted.conj().T @ art["w"].columns, 2)
    assert overlap < 1e-10


def test_orbit_input_validation(g1):
    with pytest.raises(DegenerateInputError):
        ph.orbit_span([], g1)
    zero = ph.HardyVector(g1, {})
    with pytest.raises(DegenerateInputError):
        ph.orbit_span([zero], g1)
    other = ph.parse_polynomial("z", ph.Grade(1, 4, 4, 1))
    with pytest.raises(GradeError):
        ph.orbit_span([other], g1)
    with pytest.raises(GradeError):
        ph.orbit_span([ph.parse_polynomial("z", g1)], g1, working_margin=-1)


def test_orbit_stability_flag(g1):
    gens = [ph.parse_polynomial("z - z1", g1)]
    base, stable = ph.orbit_stability(gens, g1, 2)
    assert stable
    assert base.dim == 25


def test_safe_columns_lead(corpus_artifacts):
    from polyhardy.subspace import safe_column_mask

    for label in ["z-minus-z1", "random-11"]:
        art = corpus_artifacts[label]
        mask = safe_column_mask(art["s"])
        n = art["s"].n_certified
        assert mask[:n].all() and not mask[n:].any(), label


def test_check_invariant_positive(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    report = ph.check_invariant(art["s"], range(art["grade"].n + 1))
    assert report.verdict
    assert report.n_safe_columns == art["s"].n_certified
    assert max(report.residuals) < 1e-10


def test_check_invariant_negative(g1):
    vec = ph.parse_polynomial("z", g1).to_dense()[:, None]
    loose = ph.subspace_from_columns(g1, vec)
    report = ph.check_invariant(loose, [0])
    assert not report.verdict
    assert report.residuals[0] > 0.9
    with pytest.raises(NotInvariantError):
        ph.wandering_subspace(loose)


def test_check_invariant_grade_mismatch(corpus_artifacts):
    # the grade has shift axes 0..n only
    art = corpus_artifacts["z-minus-z1"]
    for axis in (-1, art["grade"].n + 1):
        with pytest.raises(GradeError):
            ph.check_invariant(art["s"], [axis])


def test_subspace_basis_requires_orthonormal(g1):
    cols = np.zeros((36, 2), dtype=complex)
    cols[0, 0] = 1.0
    cols[0, 1] = 1.0
    with pytest.raises(GradeError):
        ph.SubspaceBasis(g1, cols, ph.Provenance("adhoc"))


def test_build_from_theta_round_trip(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    rebuilt = ph.build_from_theta(art["theta"], art["grade"])
    assert rebuilt.dim == art["s"].dim
    assert ph.max_principal_angle_sine(rebuilt, art["s"]) < 1e-10
    joint = ph.check_invariant(rebuilt, range(art["grade"].n + 1))
    assert joint.verdict


def test_build_from_theta_incomplete_is_contained(corpus_artifacts):
    art = corpus_artifacts["z2-minus-zz1"]
    rebuilt = ph.build_from_theta(art["theta"], art["grade"])
    assert rebuilt.dim == 16  # four box directions need out-of-cap wandering data
    assert ph.max_principal_angle_sine(rebuilt, art["s"]) < 1e-10
    outer = ph.check_invariant(rebuilt, [0])
    assert outer.verdict


def test_build_from_theta_rejects_non_isometric(g1, corpus_artifacts):
    theta = corpus_artifacts["z-minus-z1"]["theta"]
    halved = ph.MatrixPolynomial(tuple(0.5 * c for c in theta.coeffs))
    with pytest.raises(NotIsometricError):
        ph.build_from_theta(halved, g1)


def test_build_from_theta_grade_checks(g1):
    eye = ph.MatrixPolynomial((np.eye(4),))
    with pytest.raises(GradeError):
        ph.build_from_theta(eye, g1)  # slot dim is 6, not 4


def test_wold_reconstruction(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    report = ph.wold_reconstruction(art["s"])
    assert report.verdict
    assert report.residual < 1e-10
    assert report.reconstruction_caps == 9


@pytest.mark.parametrize(
    "grade, texts",
    [(ph.Grade(1, 5, 5, 1), ["z - z1"]), (ph.Grade(2, 3, 3, 1), ["z - z1", "z - z2"])],
)
def test_wold_safe_band_residual_matches_dense(grade, texts):
    s = ph.orbit_span([ph.parse_polynomial(t, grade) for t in texts], grade)
    report = ph.wold_reconstruction(s)
    dense = wold_residual_dense(s)
    assert abs(report.residual - dense) < 1e-13
    assert report.verdict == (dense < report.tolerance)


def test_wold_block_residual_matches_dense_when_verdict_fails():
    # An inhomogeneous orbit whose Wold verdict fails: the residual is not
    # round-off here, so it is compared relative to its size.
    grade = ph.Grade(2, 3, 3, 1)
    texts = ["1 + z - z1", "z - z2"]
    s = ph.orbit_span([ph.parse_polynomial(t, grade) for t in texts], grade)
    report = ph.wold_reconstruction(s)
    dense = wold_residual_dense(s)
    assert abs(report.residual - dense) < 1e-12 * dense
    assert report.verdict == (dense < report.tolerance)


def test_wold_factors_only_pattern_blocks(corpus_artifacts, monkeypatch):
    # pair-n2's Wold-grade matrices split by total degree; the largest block
    # has 91 rows where the Wold grade has 1331.
    rows = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        rows.append(a.shape[-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    report = ph.wold_reconstruction(corpus_artifacts["pair-n2"]["s"])
    assert report.verdict
    assert rows and max(rows) <= 91


def _scattered_blocks(rng, blocks, zero_rows, zero_cols):
    """``(rows, cols, rank, scale)`` blocks on a diagonal, plus zero rows and
    zero columns, with rows and columns then permuted."""
    m = sum(b[0] for b in blocks) + zero_rows
    n = sum(b[1] for b in blocks) + zero_cols
    a = np.zeros((m, n), dtype=complex)
    r0 = c0 = 0
    for r, c, rank, scale in blocks:
        left = rng.normal(size=(r, rank)) + 1j * rng.normal(size=(r, rank))
        a[r0 : r0 + r, c0 : c0 + c] = scale * left @ rng.normal(size=(rank, c))
        r0, c0 = r0 + r, c0 + c
    return a[rng.permutation(m)][:, rng.permutation(n)]


@pytest.mark.parametrize("seed", range(4))
def test_block_kernels_span_what_dense_spans(seed):
    rng = np.random.default_rng(seed)
    # (rows, cols, rank, scale); the last block falls below both cuts
    blocks = [(4, 3, 3, 1.0), (5, 6, 2, 10.0), (1, 1, 1, 0.5), (3, 5, 3, 1.0)]
    blocks.append((6, 2, 1, 1e-12))
    a = _scattered_blocks(rng, blocks, zero_rows=3, zero_cols=2)
    pairs = [(block_span(a), ph.orthonormal_columns(a)), (block_null(a), null_columns(a))]
    for sparse, dense in pairs:
        block = sparse.toarray()
        assert block.shape == dense.shape
        assert ph.max_principal_angle_sine(block, dense) < 1e-12
        assert np.linalg.norm(block.conj().T @ block - np.eye(block.shape[1])) < 1e-12
    # the Wold path hands the kernels sparse matrices
    for kernel in (block_span, block_null):
        assert np.array_equal(kernel(csr_array(a)).toarray(), kernel(a).toarray())


@pytest.mark.parametrize("seed", range(4))
def test_block_product_equals_dense_product(seed):
    rng = np.random.default_rng(seed)
    a = _scattered_blocks(rng, [(3, 2, 2, 1.0), (2, 2, 2, 1.0), (1, 3, 1, 1.0)], 2, 1)
    b = _scattered_blocks(rng, [(3, 2, 2, 1.0), (4, 3, 2, 1.0), (1, 1, 1, 1.0)], 0, 2)
    # two components of [a; bᵀ] with one shape, 3 × 2, split 2 + 1 and 1 + 2
    c = np.zeros((3, 4), dtype=complex)
    d = np.zeros((4, 3), dtype=complex)
    c[:2, :2], c[2, 2:] = rng.normal(size=(2, 2)), rng.normal(size=2)
    d[:2, 0], d[2:, 1:] = rng.normal(size=2), rng.normal(size=(2, 2))
    for x, y in [(a, b), (c, d)]:
        product = _matmul(csr_array(x), csr_array(y))
        assert product.shape == (x.shape[0], y.shape[1])
        assert np.abs(product.toarray() - x @ y).max() < 1e-12


def test_block_kernels_edge_cases():
    # the relative cut is taken against the largest singular value of the
    # whole matrix, not of each block
    assert block_span(np.diag([10.0, 5e-10])).shape == (2, 1)
    zero = np.zeros((5, 4))
    assert block_span(zero).shape == (5, 0)
    assert np.array_equal(block_null(zero).toarray(), np.eye(4))
    no_columns = np.zeros((5, 0))
    assert block_span(no_columns).shape == (5, 0)
    assert block_null(no_columns).shape == (0, 0)


def test_block_kernels_equal_dense_on_connected_pattern():
    rng = np.random.default_rng(3)
    full = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    low_rank = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
    for a in (full, full.T, low_rank, low_rank.T):
        assert np.array_equal(block_span(a).toarray(), ph.orthonormal_columns(a))
        assert np.array_equal(block_null(a).toarray(), null_columns(a))


def test_wold_requires_orbit_provenance(g1):
    vec = ph.parse_polynomial("1", g1).to_dense()[:, None]
    adhoc = ph.subspace_from_columns(g1, vec)
    with pytest.raises(GradeError):
        ph.wold_reconstruction(adhoc)


def test_principal_angles():
    rng = np.random.default_rng(0)
    a = np.linalg.qr(rng.normal(size=(10, 3)))[0]
    assert ph.max_principal_angle_sine(a, a) < 1e-14
    b = np.zeros((10, 2))
    b[8, 0] = 1.0
    b[9, 1] = 1.0
    c = np.zeros((10, 2))
    c[0, 0] = 1.0
    c[1, 1] = 1.0
    assert ph.max_principal_angle_sine(b, c) == pytest.approx(1.0)
    assert ph.principal_angle_sines(np.zeros((10, 0)), b).size == 0


def test_organize_preserves_span(g1, corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    rng = np.random.default_rng(5)
    mix = np.linalg.qr(rng.normal(size=(art["s"].dim,) * 2) + 1j * rng.normal(size=(art["s"].dim,) * 2))[0]
    scrambled = art["s"].columns @ mix
    organized, n_safe = ph.organize_basis(g1, scrambled)
    assert organized.shape[1] == art["s"].dim
    assert n_safe == art["s"].n_certified
    assert ph.max_principal_angle_sine(organized, art["s"].columns) < 1e-10


def test_graded_basis_degree_order(g1, corpus_artifacts):
    cols = corpus_artifacts["z-minus-z1"]["s"].columns
    graded = ph.graded_basis(g1, cols)
    degrees = []
    for j in range(graded.shape[1]):
        support = [t[0] for t, c in zip(g1.indices, graded[:, j]) if abs(c) > 1e-9]
        degrees.append(max(support))
    assert degrees == sorted(degrees)
