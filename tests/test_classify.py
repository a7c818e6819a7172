from __future__ import annotations

import numpy as np
import pytest

import polyhardy as ph
from polyhardy import classify
from polyhardy.errors import GradeError, NotIsometricError
from polyhardy.operators import CERTIFICATE_TOL
from polyhardy.reporting import canonical_json
from polyhardy.subspace import _pattern_blocks

from .oracles import (
    dense_order,
    dense_position,
    doubly_commuting_dense,
    sylvester_nullspace_dense,
    sylvester_stack,
)


def _cert_phi(art):
    nc = art["w"].n_certified
    return [phi.block(nc, nc) for phi in art["phis"]]


def test_coincide_conjugated_pair(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    cert = _cert_phi(art)[0]
    nc = cert.shape[0]
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(nc, nc)) + 1j * rng.normal(size=(nc, nc)))
    conj = ph.MatrixPolynomial(tuple(q.conj().T @ c @ q for c in cert.coeffs))
    cert_out = ph.coincide([cert], [conj], 4)
    assert cert_out.verdict == "coincide"
    assert cert_out.nullspace_dim == 1
    assert cert_out.unitarity_residual < 1e-8
    assert cert_out.intertwining_residual < 1e-8


def test_coincide_rejects_distinct_ranks(corpus_artifacts):
    a = _cert_phi(corpus_artifacts["z-minus-z1"])  # 4-dimensional
    b = _cert_phi(corpus_artifacts["one"])  # 5-dimensional
    out = ph.coincide(a, b, 4)
    assert out.verdict == "distinct"


def test_coincide_genuinely_different(corpus_artifacts):
    """Same certified dimension, one constant tuple and one not."""
    a = _cert_phi(corpus_artifacts["z1"])  # constant shift on 4 coordinates
    b = _cert_phi(corpus_artifacts["z-minus-z1"])  # nonconstant, also 4
    out = ph.coincide(a, b, 4)
    assert out.verdict == "distinct"


def test_coincide_large_commutant(corpus_artifacts):
    # the constant shift commutes with 5 matrices, but only the scalars
    # commute with it and its adjoint
    cert = _cert_phi(corpus_artifacts["z"])[0]
    out = ph.coincide([cert], [cert], 4)
    assert out.verdict == "coincide"
    assert out.nullspace_dim == 1
    assert out.unitarity_residual < 1e-8


def test_coincide_equal_zero_tuples():
    # every 4×4 matrix intertwines the zero tuples; a random one is invertible
    zero = ph.MatrixPolynomial((np.zeros((4, 4)),))
    out = ph.coincide([zero], [zero], 2)
    assert out.verdict == "coincide"
    assert out.nullspace_dim == 16
    assert out.sigma_ratio > 1e-8
    assert out.unitarity_residual < 1e-8
    assert out.intertwining_residual < 1e-8


def _diagonal(*entries):
    return [ph.MatrixPolynomial((np.diag(entries).astype(complex),))]


def test_coincide_singular_solutions_distinct():
    # τ·diag(1, 0) = 0 leaves τ's second column free: every solution is singular
    out = ph.coincide(_diagonal(1.0, 0.0), _diagonal(0.0, 0.0), 0)
    assert out.verdict == "distinct"
    assert out.nullspace_dim == 2
    assert out.sigma_ratio == 0.0


def test_coincide_indeterminate():
    # the relative cut keeps the 1e-6 entry's equation in the null space,
    # so the diagonal polar factor misses it by 1e-6
    out = ph.coincide(_diagonal(1000.0, 0.0), _diagonal(1000.0, 1e-6), 0)
    assert out.verdict == "indeterminate"
    assert out.nullspace_dim == 2
    assert out.sigma_ratio > 1e-8
    assert out.unitarity_residual < 1e-8
    assert out.intertwining_residual >= 1e-8


def test_coincide_swapped_indeterminate_pair():
    # B against A reads the verdict and null-space dimension of A against B
    a, b = _diagonal(1000.0, 0.0), _diagonal(1000.0, 1e-6)
    there, back = ph.coincide(a, b, 0), ph.coincide(b, a, 0)
    assert (there.verdict, there.nullspace_dim) == (back.verdict, back.nullspace_dim)
    assert (back.verdict, back.nullspace_dim) == ("indeterminate", 2)


def test_coincide_rejects_different_axis_counts(corpus_artifacts):
    # checked before the ranks, which differ here too
    one_axis = _cert_phi(corpus_artifacts["z-minus-z1"])
    two_axes = _cert_phi(corpus_artifacts["pair-n2"])
    assert one_axis[0].shape != two_axes[0].shape
    with pytest.raises(GradeError, match="axis counts differ"):
        ph.coincide(one_axis, two_axes, 3)


def test_sylvester_contains_identity(corpus_artifacts):
    cert = _cert_phi(corpus_artifacts["z-minus-z1"])
    null, _ = ph.sylvester_nullspace(cert, cert, 4)
    vec_eye = np.eye(4).T.reshape(-1)
    residual = vec_eye - null @ (null.conj().T @ vec_eye)
    assert np.linalg.norm(residual) < 1e-8


def _random(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unitary(rng, size):
    return np.linalg.qr(_random(rng, (size, size)))[0]


def _tuples(rng, kind):
    """Two-axis Φ tuples of degree 2: ``(phis_a, phis_b)``."""
    if kind == "zero":
        zero = [ph.MatrixPolynomial((np.zeros((4, 4)),))]
        return zero, zero
    if kind == "block-diagonal":
        # a 2 + 3 block-diagonal tuple and its conjugate by a block-diagonal
        # unitary: τ is one scalar per block
        mask = np.zeros((5, 5), dtype=bool)
        mask[:2, :2] = mask[2:, 2:] = True
        q = np.zeros((5, 5), dtype=complex)
        q[:2, :2], q[2:, 2:] = _unitary(rng, 2), _unitary(rng, 3)
        coeffs = [[_random(rng, (5, 5)) * mask for _ in range(3)] for _ in range(2)]
        conj = [[q @ c @ q.conj().T for c in axis] for axis in coeffs]
    elif kind == "repeated":
        # a 3 × 3 summand repeated, X ⊕ X, and its conjugate by a unitary:
        # every eigenvalue of a Hermitian element is double, and τ is q·(M ⊗ I)
        q = _unitary(rng, 6)
        coeffs = []
        for _ in range(2):
            summand = [_random(rng, (3, 3)) for _ in range(3)]
            coeffs.append([np.kron(np.eye(2), c) for c in summand])
        conj = [[q @ c @ q.conj().T for c in axis] for axis in coeffs]
    elif kind == "dense":
        q = _unitary(rng, 5)
        coeffs = [[_random(rng, (5, 5)) for _ in range(3)] for _ in range(2)]
        conj = [[q @ c @ q.conj().T for c in axis] for axis in coeffs]
    else:  # "unequal-rank": the 3 × 3 tuple is a summand of the 5 × 5 one
        w = _unitary(rng, 5)
        coeffs, conj = [], []
        for _ in range(2):
            a = [_random(rng, (3, 3)) for _ in range(3)]
            b = [np.zeros((5, 5), dtype=complex) for _ in range(3)]
            for m in range(3):
                b[m][:3, :3], b[m][3:, 3:] = a[m], _random(rng, (2, 2))
            coeffs.append(a)
            conj.append([w @ c @ w.conj().T for c in b])
    return (
        [ph.MatrixPolynomial(tuple(axis)) for axis in coeffs],
        [ph.MatrixPolynomial(tuple(axis)) for axis in conj],
    )


@pytest.mark.parametrize(
    "kind, dim, blocks",
    [
        ("block-diagonal", 2, 4),
        ("dense", 1, 1),
        ("zero", 16, 0),
        ("unequal-rank", 1, 1),
        ("repeated", 4, 2),
    ],
)
def test_sylvester_nullspace_matches_dense_oracle(kind, dim, blocks):
    # τ of a 2 + 3 block-diagonal pair splits into the four blocks of the
    # whole stack; the zero tuples' stack has no entries, so every τ is null
    phis_a, phis_b = _tuples(np.random.default_rng(3), kind)
    stack = sylvester_stack(phis_a, phis_b, 2)
    assert len(list(_pattern_blocks(stack))) == blocks
    null, cut = ph.sylvester_nullspace(phis_a, phis_b, 2)
    reference, _ = sylvester_nullspace_dense(phis_a, phis_b, 2)
    assert null.shape[1] == reference.shape[1] == dim
    projector = null @ null.conj().T - reference @ reference.conj().T
    assert np.linalg.norm(projector, 2) < 1e-10
    assert np.linalg.norm(stack @ null, axis=0).max() <= cut


def _reordered_pair(pool_member, label):
    """The certified Φ tuples of a pool member and of its reordered copy,
    their certified dimension and the trusted degree."""
    tuples = []
    for reordered in (False, True):
        member = pool_member(label, reordered)
        s, w = member["s"], member["w"]
        phis = [ph.extract_phi(s, w, axis, force=True) for axis in range(2)]
        tuples.append(_cert_phi({"w": w, "phis": phis}))
    trusted = member["grade"].outer_cap - member["grade"].safe_margin
    return tuples, w.n_certified, trusted


@pytest.mark.parametrize(
    "kind", ["block-diagonal", "dense", "zero", "unequal-rank", "n2-cmp-00"]
)
def test_sylvester_stack_equals_the_kronecker_stack(kind, pool_member, monkeypatch):
    # the reduced stack is (Xᵀ⊗I − I⊗Y) stacked over the equations, rotated
    # into the eigenbases of H_X and H_Y and restricted to the matched pairs
    if kind == "n2-cmp-00":
        (phis_a, phis_b), _, trusted = _reordered_pair(pool_member, kind)
    else:
        (phis_a, phis_b), trusted = _tuples(np.random.default_rng(3), kind), 2
    eighs, stacks = [], []
    eigh, qr = np.linalg.eigh, np.linalg.qr
    monkeypatch.setattr(np.linalg, "eigh", lambda h: eighs.append(eigh(h)) or eighs[-1])
    monkeypatch.setattr(np.linalg, "qr", lambda a, **kw: stacks.append(a) or qr(a, **kw))
    _, cut = ph.sylvester_nullspace(phis_a, phis_b, trusted)
    (lx, ux), (ly, uy) = eighs
    a, b = np.nonzero(np.abs(ly[:, None] - lx) <= cut)
    rb = uy.shape[0]
    rotation = np.kron(ux.T, uy.conj().T)
    whole = sylvester_stack(phis_a, phis_b, trusted)
    equations = whole.reshape(-1, rotation.shape[0], whole.shape[1])
    rotated = rotation @ equations @ np.kron(ux.conj(), uy)
    want = rotated[:, :, b * rb + a].reshape(-1, a.size)
    (got,) = stacks
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    assert (np.abs(got).max() > 0) == (kind != "zero")


def test_coincide_tau_depends_on_the_null_space_not_its_basis(monkeypatch):
    # the block-diagonal pair's null space has dimension 2; another
    # orthonormal basis of it must give the same τ and verdict
    phis_a, phis_b = _tuples(np.random.default_rng(3), "block-diagonal")
    before = ph.coincide(phis_a, phis_b, 2)
    assert before.nullspace_dim == 2
    nullspace = classify.sylvester_nullspace
    u = _unitary(np.random.default_rng(8), 2)

    def rotated(*args):
        null, s = nullspace(*args)
        return null @ u, s

    monkeypatch.setattr(classify, "sylvester_nullspace", rotated)
    after = ph.coincide(phis_a, phis_b, 2)
    assert after.verdict == before.verdict == "coincide"
    assert np.abs(after.tau - before.tau).max() < 1e-10


def test_sylvester_factors_only_the_matched_unknowns(pool_member, monkeypatch):
    # The *-closed stack of n2-cmp-00 against its reordered copy has 400
    # unknowns; the seeded Hermitian elements match each of their 20
    # eigenvalues once, so the reduced stack has 20 columns and the whole
    # stack is never factored.
    tuples, nc, trusted = _reordered_pair(pool_member, "n2-cmp-00")
    factored = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        factored.append(a.shape[1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert ph.coincide(*tuples, trusted).verdict == "coincide"
    assert max(factored) == nc == 20


def _n3_artifacts():
    grade = ph.Grade(3, 3, 3, 1)
    gens = [ph.parse_polynomial(f"z - z{i}", grade) for i in (1, 2, 3)]
    s = ph.orbit_span(gens, grade)
    w = ph.wandering_subspace(s)
    return {"s": s, "w": w, "phis": [ph.extract_phi(s, w, ax, force=True) for ax in range(3)]}


@pytest.mark.parametrize("label", ["pair-n2", "n3-D3"])
def test_doubly_commuting_reads_the_safe_rows_only(corpus_artifacts, label):
    # the words, defect and commutators formed from the safe rows give what
    # the full dim S × dim S products give on the safe block
    art = _n3_artifacts() if label == "n3-D3" else corpus_artifacts[label]
    report = ph.doubly_commuting_classification(art["s"], art["phis"], art["w"].n_certified)
    adj, sv = doubly_commuting_dense(art["s"])
    assert abs(report.adjoint_commutation_residual - adj) < 1e-12
    assert report.doubly_commuting == (adj < report.tolerance)
    assert report.defect_rank == int((sv > CERTIFICATE_TOL).sum())
    s = art["s"]
    ops = [s.columns.conj().T @ ph.shift(s.grade, ax, s.columns) for ax in range(1 + s.grade.n)]
    defect = ph.defect_sum(ops, slice(0, s.n_certified))
    assert np.abs(np.linalg.svd(defect, compute_uv=False) - sv).max() < 1e-12


def test_nested_factorization(corpus_artifacts):
    inner = corpus_artifacts["z2-minus-zz1"]
    outer = corpus_artifacts["z-minus-z1"]
    cert = ph.nested_factor(
        inner["s"], inner["theta"], outer["s"], outer["theta"], 4,
        n_certified=inner["w"].n_certified,
    )
    assert cert.verdict == "nested"
    assert cert.containment_residual < 1e-10
    assert cert.factorization_residual < 1e-8
    assert cert.isometry_residual < 1e-8
    mm = ph.module_map_check(
        cert.psi, inner["phis"], outer["phis"], 4,
        n_certified=inner["w"].n_certified,
    )
    assert mm.verdict


def test_nested_control_pair(corpus_artifacts):
    z1 = corpus_artifacts["z1"]
    z = corpus_artifacts["z"]
    cert = ph.nested_factor(
        z1["s"], z1["theta"], z["s"], z["theta"], 4,
        n_certified=z1["w"].n_certified,
    )
    assert cert.verdict == "not nested"
    assert cert.containment_residual > 0.9


def test_nested_requires_isometric(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    bad = ph.MatrixPolynomial(tuple(0.5 * c for c in art["theta"].coeffs))
    with pytest.raises(NotIsometricError):
        ph.nested_factor(art["s"], bad, art["s"], art["theta"], 4)


def test_uniqueness_permuted_basis(corpus_artifacts, g1):
    art = corpus_artifacts["z-minus-z1"]
    w = art["w"]
    nc = w.n_certified
    perm = list(range(nc))[::-1] + list(range(nc, w.dim))
    shuffled = ph.SubspaceBasis(
        g1, w.columns[:, perm], ph.Provenance("wandering"), n_certified=nc
    )
    theta_tilde = ph.extract_theta(art["s"], shuffled, force=True)
    cert = ph.uniqueness_tau(art["theta"], theta_tilde, n_certified=nc, tolerance=1e-10)
    assert cert.verdict == "coincide"
    assert cert.unitarity_residual < 1e-10
    assert cert.intertwining_residual < 1e-10
    permutation = np.zeros((nc, nc))
    for src, dst in enumerate(perm[:nc]):
        permutation[dst, src] = 1.0
    assert np.allclose(np.abs(cert.tau), permutation.T, atol=1e-10)


def _trusted(art):
    return art["grade"].outer_cap - art["grade"].safe_margin


# each check that reads a certified block, as a function of its n_certified
WIDTH_CHECKS = {
    "verify_intertwining": lambda art, nc: ph.verify_intertwining(
        ph.kappa_polynomial(art["grade"], 0), art["theta"], art["phis"][0], _trusted(art), nc
    ),
    "is_isometric_multiplier": lambda art, nc: ph.is_isometric_multiplier(art["theta"], nc),
    "multiplier_commutation": lambda art, nc: ph.multiplier_commutation(
        *art["phis"], _trusted(art), nc
    ),
    "nested_factor": lambda art, nc: ph.nested_factor(
        art["s"], art["theta"], art["s"], art["theta"], _trusted(art), nc
    ),
    "uniqueness_tau": lambda art, nc: ph.uniqueness_tau(
        art["theta"], ph.MatrixPolynomial(tuple(c[:, ::-1] for c in art["theta"].coeffs)), nc
    ),
    "module_map_check": lambda art, nc: ph.module_map_check(
        ph.MatrixPolynomial((np.eye(art["w"].dim),)), art["phis"], art["phis"], _trusted(art), nc
    ),
}


@pytest.mark.parametrize("check", WIDTH_CHECKS)
def test_n_certified_none_reads_the_full_width(corpus_artifacts, check):
    art = corpus_artifacts["pair-n2"]
    width = art["w"].dim
    assert art["w"].n_certified < width  # so the full width is not the certified block
    run = WIDTH_CHECKS[check]
    assert canonical_json(run(art, None)) == canonical_json(run(art, width))


def test_module_map_negative(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    rng = np.random.default_rng(4)
    x = ph.MatrixPolynomial((rng.normal(size=(art["w"].dim, art["w"].dim)),))
    report = ph.module_map_check(x, art["phis"], art["phis"], 4)
    assert not report.verdict


def test_bessel_identity_embeddings():
    for d_src, d_tgt in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        target = ph.Grade(1, 4, 4, d_tgt)
        vectors = []
        for e in range(d_src):
            v = np.zeros(target.dim)
            v[dense_position(target)[(0, 0, e)]] = 1.0
            vectors.append(v)
        report = ph.bessel_diagnostics(target, vectors, float(d_tgt))
        assert report.verdict
        sums = report.partial_sums
        assert all(sums[i + 1] >= sums[i] - 1e-15 for i in range(len(sums) - 1))
        assert sums[-1] == pytest.approx(float(d_src))


def test_bessel_partial_sums_equal_a_shell_loop():
    rng = np.random.default_rng(7)
    for grade in (ph.Grade(1, 4, 4, 2), ph.Grade(2, 3, 2, 1), ph.Grade(3, 2, 1, 2)):
        for count in (1, 3):
            vectors = rng.normal(size=(count, grade.dim)) + 1j * rng.normal(size=(count, grade.dim))
            order = dense_order(grade)
            sums, total = [], 0.0
            for shell in range(grade.outer_cap + grade.n * grade.inner_cap + 1):
                for i, t in enumerate(order):
                    if sum(t[:-1]) == shell:
                        total += float(sum(abs(v[i]) ** 2 for v in vectors))
                sums.append(total)
            report = ph.bessel_diagnostics(grade, list(vectors), 1.0)
            assert np.allclose(report.partial_sums, sums, rtol=0, atol=1e-14 * max(sums))
            assert report.verdict == all(s <= 1.0 + report.tolerance for s in sums)


def test_bessel_violation():
    grade = ph.Grade(1, 4, 4, 1)
    v = np.zeros(grade.dim)
    v[0] = 2.0  # mass 4 exceeds the capacity bound of 1
    report = ph.bessel_diagnostics(grade, [v], 1.0)
    assert not report.verdict
    with pytest.raises(GradeError):
        ph.bessel_diagnostics(grade, [np.zeros(3)], 1.0)


def test_doubly_commuting_golden(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    report = ph.doubly_commuting_classification(
        art["s"], art["phis"], art["w"].n_certified
    )
    assert not report.doubly_commuting
    assert not report.phis_constant
    assert report.equivalence_holds
    assert report.adjoint_commutation_residual == pytest.approx(0.5, abs=1e-10)
    assert report.phi_nonconstancy == pytest.approx(0.5, abs=1e-10)
    assert report.defect_rank == 7
    assert report.defect_gap > 1e6


def test_doubly_commuting_positive_cases(corpus_artifacts):
    for label in ["one", "z1"]:
        art = corpus_artifacts[label]
        report = ph.doubly_commuting_classification(
            art["s"], art["phis"], art["w"].n_certified
        )
        assert report.doubly_commuting, label
        assert report.phis_constant, label
        assert report.equivalence_holds, label
        assert report.defect_rank == 1, label


def test_lower_bound_certificate():
    # 75 source columns in a 72-dim target: XᴴX has a null vector
    report = ph.isometric_module_map_lower_bound(
        ph.Grade(1, 5, 5, 3), ph.Grade(1, 5, 5, 2)
    )
    assert report.n_source_columns == 75
    assert report.target_dim == 72
    assert report.certificate_bound == 1.0
    assert report.verdict is True


@pytest.mark.parametrize(
    "source, target",
    [((1, 4, 1, 1), (1, 1, 4, 1)), ((1, 1, 4, 1), (1, 4, 1, 1))],
)
def test_lower_bound_column_past_the_target_caps(source, target):
    # 4 columns in a 10-dim target, but z^3 (then z1^3) lies past the target
    # caps, so every module map sends that column to zero
    report = ph.isometric_module_map_lower_bound(ph.Grade(*source), ph.Grade(*target))
    assert report.n_source_columns < report.target_dim
    assert report.certificate_bound == 1.0
    assert report.verdict is True


def test_lower_bound_feasible_direction():
    # the slot-aligned map is an exact isometric module map
    report = ph.isometric_module_map_lower_bound(
        ph.Grade(1, 4, 4, 1), ph.Grade(1, 4, 4, 1)
    )
    assert report.certificate_bound == 0.0
    assert report.verdict is False


@pytest.mark.parametrize(
    "source, target",
    [
        # fewer columns than the target's dim, and d_src > d_tgt
        ((1, 5, 5, 4), (1, 5, 5, 3)),
        ((2, 3, 3, 2), (2, 3, 3, 1)),
        ((1, 2, 2, 3), (1, 3, 3, 2)),
    ],
)
def test_lower_bound_abstains_without_a_proof(source, target):
    report = ph.isometric_module_map_lower_bound(ph.Grade(*source), ph.Grade(*target))
    assert report.n_source_columns <= report.target_dim
    assert report.certificate_bound == 0.0
    assert report.verdict is None
