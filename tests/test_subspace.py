from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

import polyhardy as ph
from polyhardy import cli, operators, subspace
from polyhardy.cli import run_pipeline
from polyhardy.errors import (
    DegenerateInputError,
    GradeError,
    NotInvariantError,
    NotIsometricError,
)
from polyhardy.operators import VERDICT_TOL, Coo
from polyhardy.reporting import stable_part
from polyhardy.subspace import (
    _components,
    _orbit_slice,
    _pattern_blocks,
    _slice,
    _spans,
    _wandering,
    block_span,
    outer_degrees,
)
from .oracles import (
    coordinate_slice,
    dense_order,
    dense_projection,
    margin_reference,
    null_columns,
    orbit_reference,
    orthonormal_columns,
    wandering_reference,
    wold_residual_dense,
)
from .test_cli import decode_matrix

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
NAMED = sorted(SCENARIOS.glob("*.json"))

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
        mz = ph.shift_matrix(art["grade"], 0)
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
    mz = ph.shift_matrix(art["grade"], 0)
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
    # check_invariant reads the leading n_certified columns as the safe ones:
    # exactly those vanish off the safe band
    for label in [sc.label for sc in ph.named_corpus()] + ["random-11"]:
        art = corpus_artifacts[label]
        rebuilt = ph.build_from_theta(art["theta"], art["grade"])
        for basis in (art["s"], art["w"], rebuilt):
            unsafe = ~basis.grade.safe_mask
            mask = np.all(np.abs(basis.columns[unsafe]) < 1e-12, axis=0)
            n = basis.n_certified
            assert mask[:n].all() and not mask[n:].any(), label
            assert ph.check_invariant(basis, [0]).n_safe_columns == n, label


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


def test_wandering_needs_orbit_provenance(g1, corpus_artifacts):
    # the same invariant span, without the orbit's working-grade basis
    orbit = corpus_artifacts["z-minus-z1"]["s"]
    adhoc = ph.subspace_from_columns(g1, orbit.columns)
    assert ph.check_invariant(adhoc, [0]).verdict
    with pytest.raises(GradeError):
        ph.wandering_subspace(adhoc)


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


def test_subspace_basis_refuses_a_wrong_complement(g1):
    # the complement must have grade.dim − dim columns, and [S | Q] must be
    # unitary: a Q of the right width that meets S is refused
    q = np.eye(g1.dim, dtype=complex)
    s, rest = q[:, :30], q[:, 30:]
    assert ph.SubspaceBasis(g1, s, ph.Provenance("adhoc"), complement=rest).dim == 30
    with pytest.raises(GradeError, match="complement width"):
        ph.SubspaceBasis(g1, s, ph.Provenance("adhoc"), complement=rest[:, 1:])
    with pytest.raises(GradeError, match="complement width"):
        ph.SubspaceBasis(g1, s, ph.Provenance("adhoc"), complement=q[:5, 30:])
    meets = rest.copy()
    meets[:, 0] = (q[:, 0] + q[:, 30]) / np.sqrt(2)
    with pytest.raises(GradeError, match="not orthonormal"):
        ph.SubspaceBasis(g1, s, ph.Provenance("adhoc"), complement=meets)


PROJECTION_POOL = ["n1-d1-05", "n1-d2-00", "n2-lin-00", "n2-cmp-00"]
GENERATED = {
    "two-plus-z1": (ph.Grade(1, 5, 5, 1), ["2 + z1"]),
    "n2-inhomogeneous": (ph.Grade(2, 4, 4, 1), ["1 + z - z1", "z - z2"]),
    # S has 36 columns in a 98-dim grade: Q would be the wider side
    "wide-complement": (ph.Grade(1, 6, 6, 2), ["z - z1"]),
}


@pytest.mark.parametrize(
    "label", [p.stem for p in NAMED] + PROJECTION_POOL + list(GENERATED)
)
def test_projection_through_the_complement_equals_the_dense_projector(label, pool_member):
    # an orbit basis carries its complement Q in the caps when Q is the
    # narrower side, and projects through it, x − Q(Qᴴx); the rebuilt basis
    # carries none and projects through its columns. Both equal the dense
    # S·Sᴴ, on the shifts and backward shifts of both bases and on seeded
    # random vectors.
    if label in PROJECTION_POOL:
        s = pool_member(label)["s"]
    elif label in GENERATED:
        grade, texts = GENERATED[label]
        s = ph.orbit_span([ph.parse_polynomial(t, grade) for t in texts], grade)
    else:
        s = _named_orbit(SCENARIOS / f"{label}.json")
    grade = s.grade
    q = s.complement
    if label == "wide-complement":
        assert (s.dim, q) == (36, None)
    else:
        assert q.shape == (grade.dim, grade.dim - s.dim) and q.shape[1] < s.dim
        whole = np.hstack([s.columns, q])
        assert np.linalg.norm(whole.conj().T @ whole - np.eye(grade.dim)) < 1e-12
    w = ph.wandering_subspace(s)
    rebuilt = ph.build_from_theta(ph.extract_theta(s, w, force=True), grade)
    assert rebuilt.complement is None
    rng = np.random.default_rng(33)
    for basis in (s, rebuilt):
        probes = [rng.normal(size=(grade.dim, 3)) + 1j * rng.normal(size=(grade.dim, 3))]
        for axis in range(grade.n + 1):
            probes.append(operators.shift(grade, axis, basis.columns))
            probes.append(operators.shift_adjoint(grade, axis, basis.columns))
        for x in probes:
            projected, residual = dense_projection(basis.columns, x)
            assert np.abs(basis.project(x) - projected).max() < 1e-12
            assert abs(basis.residual(x) - residual) < 1e-12


def test_build_from_theta_round_trip(corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    rebuilt = ph.build_from_theta(art["theta"], art["grade"])
    assert rebuilt.dim == art["s"].dim
    assert ph.max_principal_angle_sine(rebuilt, art["s"]) < 1e-10
    joint = ph.check_invariant(rebuilt, range(art["grade"].n + 1))
    assert joint.verdict
    # Θ·U is isometric with the same image, but not in the canonical layout
    r = art["theta"].shape[1]
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
    turned = ph.MatrixPolynomial(tuple(c @ u for c in art["theta"].coeffs))
    rebuilt_turned = ph.build_from_theta(turned, art["grade"])
    assert rebuilt_turned.dim == rebuilt.dim
    assert ph.max_principal_angle_sine(rebuilt_turned, rebuilt) < 1e-10


@pytest.mark.parametrize("path", ["pair-n2.json", "full-rank2.json"])
def test_build_from_theta_spans_nothing(path, monkeypatch):
    # the isometry check makes the image columns orthonormal as they stand
    scenario = ph.load_scenario(SCENARIOS / path)
    grade = scenario.grade
    s = ph.orbit_span([ph.parse_polynomial(t, grade) for t in scenario.generators], grade)
    w = ph.wandering_subspace(s)
    theta = ph.extract_theta(s, w, force=True)

    def no_span(a):
        raise AssertionError("build_from_theta spanned its image")

    monkeypatch.setattr("polyhardy.subspace.block_span", no_span)
    rebuilt = ph.build_from_theta(theta, grade)
    assert ph.max_principal_angle_sine(rebuilt, s) < 1e-10


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
    [
        (ph.Grade(1, 5, 5, 1), ["z - z1"]),
        (ph.Grade(2, 3, 3, 1), ["z - z1", "z - z2"]),
        # generators of two total degrees, and two coefficient coordinates
        (ph.Grade(2, 3, 3, 1), ["z - z1", "z^2 - z1*z2"]),
        (ph.Grade(2, 3, 3, 2), ["z*e_1 - z1", "z2*e_1 + z1"]),
        (ph.Grade(3, 2, 2, 1), ["z - z1 - z2 - z3"]),
    ],
)
def test_wold_safe_band_residual_matches_dense(grade, texts):
    s = ph.orbit_span([ph.parse_polynomial(t, grade) for t in texts], grade)
    report = ph.wold_reconstruction(s)
    dense = wold_residual_dense(s)
    assert abs(report.residual - dense) < 1e-13
    assert report.verdict == (dense < report.tolerance)


@pytest.mark.parametrize("margin, caps", [(0, 13), (1, 11), (2, 9), (3, 7)])
def test_wold_grade_serves_the_safe_band(margin, caps):
    # the Wold grade holds every stratum the safe band touches, whatever
    # the safe margin: (D − m) + n(N − m) + 1
    grade = ph.Grade(1, 6, 6, 1, safe_margin=margin)
    s = ph.orbit_span([ph.parse_polynomial("z - z1", grade)], grade)
    report = ph.wold_reconstruction(s)
    assert report.reconstruction_caps == caps
    assert report.safe_band_dim == (7 - margin) ** 2
    assert report.verdict
    assert abs(report.residual - wold_residual_dense(s)) < 1e-13


def test_wold_check_shifts_nothing_dense_at_the_wold_grade(
    corpus_artifacts, monkeypatch
):
    # K is built at the safe band's own grade: no dense array is shifted at
    # the Wold grade (the triplet shift of the wandering step is allowed)
    wold = []
    original = operators.shift

    def guarded(grade, axis, x):
        if grade in wold and not isinstance(x, Coo):
            raise AssertionError(f"dense shift at the Wold grade {grade}")
        return original(grade, axis, x)

    monkeypatch.setattr(operators, "shift", guarded)
    monkeypatch.setattr(subspace, "shift", guarded)
    grade = ph.Grade(3, 3, 3, 1)
    texts = ["z - z1", "z - z2", "z - z3"]
    n3 = ph.orbit_span([ph.parse_polynomial(t, grade) for t in texts], grade)
    for s in (corpus_artifacts["pair-n2"]["s"], n3):
        wold[:] = [subspace.wold_grade(s.grade)]
        assert ph.wold_reconstruction(s).verdict
        # the orbit path, which these homogeneous generators no longer take
        residual, _ = subspace._orbit_wold(s.grade, s.provenance.generators)
        assert residual < VERDICT_TOL


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


def test_wold_factors_only_blocks_the_safe_band_reads(corpus_artifacts, monkeypatch):
    # pair-n2's safe band has total degree at most 9, so the Wold check
    # factors the blocks up to there; the degree-10 block has 66 rows, and
    # the cube-shaped Wold grade holds blocks of up to 91. This is the orbit
    # path's Wold check, which inhomogeneous generators take; homogeneous
    # ones such as pair-n2's take the graded path, whose stack has other
    # shapes (tests/test_graded.py).
    rows = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        rows.append(a.shape[-2])
        return svd(a, *args, **kwargs)

    s = corpus_artifacts["pair-n2"]["s"]
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    residual, _ = subspace._orbit_wold(s.grade, s.provenance.generators)
    assert residual < VERDICT_TOL
    assert rows and max(rows) <= 66


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
    # (rows, cols, rank, scale); the last block falls below the span's cut
    blocks = [(4, 3, 3, 1.0), (5, 6, 2, 10.0), (1, 1, 1, 0.5), (3, 5, 3, 1.0)]
    blocks.append((6, 2, 1, 1e-12))
    a = _scattered_blocks(rng, blocks, zero_rows=3, zero_cols=2)
    factored = block_span(a)
    basis = _spans(a.shape[0], factored)
    # each block's span and complement K make one unitary; the tall blocks'
    # K also holds every left vector past their column count, and the cut
    # block is all K
    for rows, span, k in factored:
        q = np.hstack([span, k])
        assert q.shape == (rows.size, rows.size)
        assert np.linalg.norm(q.conj().T @ q - np.eye(rows.size)) < 1e-12
    widths = sorted((rows.size, span.shape[1], k.shape[1]) for rows, span, k in factored)
    assert widths == [(1, 1, 0), (3, 3, 0), (4, 3, 1), (5, 2, 3), (6, 0, 6)]
    # the slice keeps the smallest block whole, drops the largest whole and
    # cuts the two others
    layout = [rows for rows, span, _ in factored if span.shape[1]]
    assert len(layout) == 4
    keep = np.zeros(a.shape[0], dtype=bool)
    keep[layout[0]] = True
    for rows in layout[1:-1]:
        keep[rows[::2]] = True
    # the complement slice of the orbit blocks and the row split of their
    # spans, which the wandering basis still takes; with the slice comes its
    # complement among the kept rows, so that [slice | complement] is the
    # identity's span there
    sliced, complement = _orbit_slice(factored, keep)
    whole = np.hstack([sliced.toarray(), complement.toarray()])[keep]
    assert whole.shape == (keep.sum(), keep.sum())
    assert np.linalg.norm(whole.conj().T @ whole - np.eye(keep.sum())) < 1e-12
    assert not np.any(complement.toarray()[~keep])
    split = _slice(basis, keep)
    dense_slice = coordinate_slice(basis.toarray(), keep)
    pairs = [(basis, orthonormal_columns(a)), (sliced, dense_slice), (split, dense_slice)]
    for sparse, dense in pairs:
        block = sparse.toarray()
        assert block.shape == dense.shape
        assert ph.max_principal_angle_sine(block, dense) < 1e-12
        assert np.linalg.norm(block.conj().T @ block - np.eye(block.shape[1])) < 1e-12
    assert sliced.shape[1] == split.shape[1] == 4
    assert not np.any(sliced.toarray()[~keep])
    assert np.abs(split.toarray()[~keep]).max() < 1e-12
    # the Wold path hands the kernels triplets
    for (rows, span, k), (rows_t, span_t, k_t) in zip(factored, block_span(Coo.from_dense(a))):
        assert np.array_equal(rows, rows_t)
        assert np.array_equal(span, span_t) and np.array_equal(k, k_t)
    assert np.array_equal(_slice(basis.toarray(), keep).toarray(), split.toarray())


@pytest.mark.parametrize("seed", range(4))
def test_wandering_kernel_equals_dense_wandering(seed):
    rng = np.random.default_rng(seed)
    grade = ph.Grade(1, 3, 2)
    degree = grade.exponents[:, 0]
    low, top = np.flatnonzero(degree <= 1), np.flatnonzero(degree == grade.outer_cap)
    a = np.zeros((grade.dim, 7), dtype=complex)
    a[low, :5] = _scattered_blocks(rng, [(3, 3, 2, 1.0), (2, 2, 2, 1.0)], 1, 0)
    a[top, 5:] = _scattered_blocks(rng, [(2, 2, 2, 1.0)], 1, 0)
    factored = block_span(a)
    b, mz = _spans(grade.dim, factored).toarray(), operators.shift_matrix(grade, 0)
    # z truncates the top block's image away, so its block of [B | M_z·B]
    # has no columns of M_z·B and is wandering whole
    on_top = ~np.any(np.delete(b, top, axis=0), axis=0)
    assert on_top.sum() == 2 and not np.any(mz @ b[:, on_top])
    w = _wandering(grade, factored).toarray()
    ref = wandering_reference(b, mz)
    assert w.shape == ref.shape
    assert ph.max_principal_angle_sine(w, ref) < 1e-12
    assert np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])) < 1e-12
    for column in b[:, on_top].T:
        assert any(np.array_equal(column, kept) for kept in w.T)


@pytest.mark.parametrize(
    "grade, texts",
    [(ph.Grade(1, 5, 5, 1), ["2 + z1"]), (ph.Grade(2, 4, 4, 1), ["1 + z - z1", "z - z2"])],
    ids=["two-plus-z1", "n2-inhomogeneous"],
)
def test_complement_kernels_equal_dense_on_inhomogeneous_orbits(grade, texts):
    # inhomogeneous generators give orbit blocks that span several total
    # degrees and that z shifts into themselves; the complement slice and
    # wandering step read the working orbit's K, the references its span
    s = ph.orbit_span([ph.parse_polynomial(t, grade) for t in texts], grade)
    gw = subspace.working_grade(grade, s.provenance.margin)
    blocks = s.provenance.working_basis
    b = _spans(gw.dim, blocks).toarray()
    keep = subspace._inside_caps(grade, gw)
    rows = subspace.embedding_positions(grade, gw)
    sliced, complement = _orbit_slice(blocks, keep)
    capped = coordinate_slice(b, keep)[rows]
    for got, want in [
        (sliced.toarray(), coordinate_slice(b, keep)),
        (_wandering(gw, blocks).toarray(), wandering_reference(b, operators.shift_matrix(gw, 0))),
        (sliced.take_rows(rows).toarray(), capped),
        (complement.take_rows(rows).toarray(), null_columns(capped.conj().T)),
        (s.complement, null_columns(capped.conj().T)),
    ]:
        assert got.shape == want.shape
        assert ph.max_principal_angle_sine(got, want) < 1e-10
        assert np.linalg.norm(got.conj().T @ got - np.eye(got.shape[1])) < 1e-12


MARGIN_MEMBERS = ["n1-d1-05", "n1-d2-00", "n2-lin-00"]


def _projector(columns: np.ndarray) -> np.ndarray:
    return columns @ columns.conj().T


@pytest.mark.parametrize("label", [p.stem for p in NAMED] + MARGIN_MEMBERS)
def test_orbit_and_wandering_equal_the_dense_margin_path(label, pool_member):
    # the spans of the working-grade multiples, sliced to the caps, and W
    # from the (M_z B)ᴴB null space, all dense and with no complement
    if label in MARGIN_MEMBERS:
        member = pool_member(label)
        scenario, s, w = member["scenario"], member["s"], member["w"]
    else:
        scenario = ph.load_scenario(SCENARIOS / f"{label}.json")
        s = _named_orbit(SCENARIOS / f"{label}.json")
        w = ph.wandering_subspace(s)
    grade = scenario.grade
    generators = [ph.parse_polynomial(t, grade) for t in scenario.generators]
    s_ref, w_ref = margin_reference(generators, grade, int(scenario.option("margin", 2)))
    assert (s.dim, w.dim) == (s_ref.shape[1], w_ref.shape[1])
    for got, want in ((s, s_ref), (w, w_ref)):
        assert np.linalg.norm(_projector(got.columns) - _projector(want), 2) < 1e-10


@pytest.mark.parametrize("label", ["n2-cmp-00", "n2-lin-00"])
def test_wandering_step_factors_nothing_as_wide_as_an_orbit_block(label, pool_member, monkeypatch):
    # The wandering step reads each orbit block's complement K: its SVDs
    # are the overlaps KᴴC, the K_q[X_q] of the shifted sources and the
    # slices and strata of W. Spanning the overlap (M_z B)ᴴB instead would
    # factor a matrix with as many columns as the widest orbit block.
    s = pool_member(label)["s"]
    widest = max(span.shape[1] for _, span, _ in s.provenance.working_basis)
    columns = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        columns.append(a.shape[-1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    w = ph.wandering_subspace(s)
    assert w.dim > 0 and columns
    assert max(columns) < widest


@pytest.mark.parametrize("seed", range(4))
def test_pattern_blocks_partition_in_shape_order(seed):
    rng = np.random.default_rng(seed)
    # two blocks of shape 3 × 2
    blocks = [(3, 2, 2, 1.0), (1, 3, 1, 1.0), (3, 2, 1, 1.0), (2, 2, 2, 1.0)]
    a = _scattered_blocks(rng, blocks, zero_rows=2, zero_cols=3)
    layout = list(_pattern_blocks(Coo.from_dense(a)))
    rows = np.concatenate([r for r, _, _ in layout])
    cols = np.concatenate([c for _, c, _ in layout])
    assert np.array_equal(np.sort(rows), np.flatnonzero(np.any(a != 0, axis=1)))
    assert np.array_equal(np.sort(cols), np.flatnonzero(np.any(a != 0, axis=0)))
    for r, c, block in layout:
        assert np.array_equal(block, a[r][:, c])
    assert sum(np.count_nonzero(block) for _, _, block in layout) == np.count_nonzero(a)
    # by row count, then column count, then component; components are
    # numbered in the order of their first rows
    keys = [(len(r), len(c), r[0]) for r, c, _ in layout]
    assert keys == sorted(keys)
    assert [k[:2] for k in keys] == [(1, 3), (2, 2), (3, 2), (3, 2)]


@pytest.mark.parametrize("seed", range(4))
def test_pattern_blocks_of_an_unsorted_triplet_equal_those_of_its_dense_form(seed):
    rng = np.random.default_rng(seed)
    blocks = [(3, 2, 2, 1.0), (1, 3, 1, 1.0), (3, 2, 1, 1.0), (2, 2, 2, 1.0)]
    a = _scattered_blocks(rng, blocks, zero_rows=2, zero_cols=3)
    r, c = np.nonzero(a)
    # an explicit zero entry at a zero row joins no block
    r = np.append(r, np.flatnonzero(~a.any(axis=1))[0])
    c = np.append(c, 0)
    order = rng.permutation(r.size)
    r, c = r[order], c[order]
    triplet = Coo(a.shape, r, c, a[r, c])
    got, want = list(_pattern_blocks(triplet)), list(_pattern_blocks(a))
    assert len(got) == len(want) == 4
    for (rows, cols, block), (rows_d, cols_d, block_d) in zip(got, want):
        assert np.array_equal(rows, rows_d) and np.array_equal(cols, cols_d)
        assert block.tobytes() == block_d.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_components_equal_scipy_connected_components(seed):
    # random bipartite patterns with empty rows and columns, entries in any
    # order: the same count and the same labels as scipy's search
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 200, size=2)
    pattern = rng.random((m, n)) < rng.uniform(0.002, 0.05)
    pattern[rng.random(m) < 0.2] = False
    pattern[:, rng.random(n) < 0.2] = False
    r, c = np.nonzero(pattern)
    order = rng.permutation(r.size)
    r, c = r[order], c[order]
    graph = csr_array((np.ones(r.size), (r, c + m)), shape=(m + n, m + n))
    count, labels = connected_components(graph, directed=False)
    got_count, got_labels = _components(r, c, m, n)
    assert got_count == count
    assert np.array_equal(got_labels, labels)


def test_block_kernels_edge_cases():
    # the relative cut is taken against the largest singular value of the
    # whole matrix, not of each block
    cut = block_span(np.diag([10.0, 5e-10]))
    assert _spans(2, cut).shape == (2, 1)
    assert [k.shape for _, _, k in cut] == [(1, 0), (1, 1)]
    zero = np.zeros((5, 4))
    assert block_span(zero) == ()
    assert _spans(5, block_span(zero)).shape == (5, 0)
    # a basis that is zero off the kept rows is its own slice, and one that
    # is zero on them slices to nothing
    basis = np.zeros((5, 2), dtype=complex)
    basis[[0, 2, 4]] = np.linalg.qr(np.arange(6.0).reshape(3, 2) + 1j)[0]
    keep = np.isin(np.arange(5), [0, 2, 4])
    assert np.array_equal(_slice(Coo.from_dense(basis), keep).toarray(), basis)
    assert _slice(Coo.from_dense(basis), ~keep).shape == (5, 0)
    factored = block_span(basis)
    sliced, complement = _orbit_slice(factored, keep)
    assert np.array_equal(sliced.toarray(), _spans(5, factored).toarray())
    assert complement.shape == (5, 1)
    assert _orbit_slice(factored, ~keep)[0].shape == (5, 0)
    # the two rows off the orbit's block are the complement's unit vectors
    assert np.array_equal(_orbit_slice(factored, ~keep)[1].toarray(), np.eye(5)[:, [1, 3]])
    no_columns = np.zeros((5, 0))
    assert block_span(no_columns) == ()
    assert _slice(Coo.from_dense(no_columns), keep).shape == (5, 0)
    assert _orbit_slice((), keep)[0].shape == (5, 0)
    assert np.array_equal(_orbit_slice((), keep)[1].toarray(), np.eye(5)[:, [0, 2, 4]])
    grade = ph.Grade(1, 1, 1)
    assert _wandering(grade, ()).shape == (4, 0)


def test_block_kernels_equal_dense_on_connected_pattern():
    rng = np.random.default_rng(3)
    full = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    low_rank = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5))
    for a in (full, full.T, low_rank, low_rank.T):
        # in the row-major layout of the block the kernel multiplies
        basis = np.ascontiguousarray(orthonormal_columns(a))
        [(_, span, _)] = block_span(a)
        assert np.array_equal(span, basis)
        keep = np.arange(a.shape[0]) > 0
        dense = basis @ null_columns(basis[~keep])
        assert np.array_equal(_slice(Coo.from_dense(basis), keep).toarray(), dense)


def test_orthonormality_guard_reads_the_frobenius_norm(g1):
    # the Gram defect of q·diag(√(1 + d)) is diag(d): its 2-norm is max d and
    # its Frobenius norm, which the guard reads, is ‖d‖₂
    rng = np.random.default_rng(2)
    q = np.linalg.qr(rng.normal(size=(g1.dim, 3)) + 1j * rng.normal(size=(g1.dim, 3)))[0]

    def basis(*defects):
        return ph.SubspaceBasis(g1, q * np.sqrt(1 + np.array(defects)), ph.Provenance("adhoc"))

    assert basis(0.9e-10, 0.0, 0.0).dim == 3
    with pytest.raises(GradeError, match="not orthonormal"):
        basis(1.01e-10, 0.0, 0.0)  # 2-norm just above the bound
    with pytest.raises(GradeError, match="not orthonormal"):
        basis(0.8e-10, 0.8e-10, 0.0)  # 2-norm below it, Frobenius norm above


@pytest.mark.parametrize("path", NAMED, ids=lambda p: p.stem)
def test_orthonormality_guard_accepts_named_canonical_bases(path):
    scenario = ph.load_scenario(path)
    grade = scenario.grade
    gens = [ph.parse_polynomial(text, grade) for text in scenario.generators]
    s = ph.orbit_span(gens, grade, int(scenario.option("margin", 2)))
    for basis in (s, ph.wandering_subspace(s)):
        cols = basis.columns
        assert ph.SubspaceBasis(grade, cols, basis.provenance).dim == basis.dim
        # far inside the bound: the Frobenius defect is round-off
        assert np.linalg.norm(cols.conj().T @ cols - np.eye(basis.dim)) < 1e-12


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
    assert ph.max_principal_angle_sine(np.zeros((10, 0)), b) == 0.0


def test_organize_preserves_span(g1, corpus_artifacts):
    art = corpus_artifacts["z-minus-z1"]
    rng = np.random.default_rng(5)
    mix = np.linalg.qr(rng.normal(size=(art["s"].dim,) * 2) + 1j * rng.normal(size=(art["s"].dim,) * 2))[0]
    scrambled = art["s"].columns @ mix
    organized, n_safe = ph.canonical_basis(g1, scrambled)
    assert organized.shape[1] == art["s"].dim
    assert n_safe == art["s"].n_certified
    assert ph.max_principal_angle_sine(organized, art["s"].columns) < 1e-10


def test_graded_basis_degree_order(g1, corpus_artifacts):
    # The canonical layout puts the safe-supported columns first; each of the
    # two parts ascends in outer degree.
    cols = corpus_artifacts["z-minus-z1"]["s"].columns
    graded, n_safe = ph.canonical_basis(g1, cols)
    degrees = []
    for j in range(graded.shape[1]):
        support = [t[0] for t, c in zip(dense_order(g1), graded[:, j]) if abs(c) > 1e-9]
        degrees.append(max(support))
    for part in (degrees[:n_safe], degrees[n_safe:]):
        assert part == sorted(part)


def _named_orbit(path: Path) -> ph.SubspaceBasis:
    scenario = ph.load_scenario(path)
    grade = scenario.grade
    gens = [ph.parse_polynomial(text, grade) for text in scenario.generators]
    return ph.orbit_span(gens, grade, int(scenario.option("margin", 2)))


@pytest.mark.parametrize("path", NAMED, ids=lambda p: p.stem)
def test_canonical_basis_depends_on_the_span_alone(path):
    # W is already in the canonical layout, and a unitary change of basis
    # does not move the layout: it fixes the unitary inside each stratum.
    # S is only split into [safe | rest]; its canonical layout, too, is the
    # same for S and for S rotated. Each part of a canonical layout,
    # safe-supported and rest, ascends in outer degree.
    s = _named_orbit(path)
    grade = s.grade
    rng = np.random.default_rng(6)
    for basis in (s, ph.wandering_subspace(s)):
        k = basis.dim
        mix = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        canonical = basis.columns if basis is not s else ph.canonical_basis(grade, s.columns)[0]
        for q in (basis.columns, basis.columns @ mix):
            layout, n_safe = ph.canonical_basis(grade, q)
            assert n_safe == basis.n_certified
            assert np.abs(layout - canonical).max() < 1e-12
        degrees = outer_degrees(grade, canonical, 1e-9)
        for part in (degrees[: basis.n_certified], degrees[basis.n_certified :]):
            assert np.all(np.diff(part) >= 0)


@pytest.mark.parametrize("path", NAMED, ids=lambda p: p.stem)
def test_orbit_basis_is_split_into_safe_and_rest(path):
    # S's leading n_certified columns vanish off the safe band, and its rest
    # is orthogonal to every safe-supported vector of S (the dense slice)
    s = _named_orbit(path)
    unsafe = ~s.grade.safe_mask
    safe, rest = s.columns[:, : s.n_certified], s.columns[:, s.n_certified :]
    assert np.abs(safe[unsafe]).max(initial=0.0) < 1e-12
    supported = coordinate_slice(s.columns, s.grade.safe_mask)
    assert supported.shape[1] == s.n_certified
    assert np.abs(rest.conj().T @ supported).max(initial=0.0) < 1e-12


def _stable_close(a, b, where: str = "") -> None:
    """Stable report parts equal, but for numbers within 1e-12; matrices
    are compared decoded, so a round-off entry may leave the pattern."""
    if isinstance(a, dict) and set(a) == {"shape", "index", "re", "im"}:
        assert a["shape"] == b["shape"], where
        assert np.abs(decode_matrix(a) - decode_matrix(b)).max() < 1e-12, where
    elif isinstance(a, dict):
        assert set(a) == set(b), where
        for k in a:
            _stable_close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _stable_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert abs(a - b) < 1e-12, where
    else:
        assert a == b, where


@pytest.mark.parametrize("path", NAMED, ids=lambda p: p.stem)
def test_reports_read_the_orbit_split_alone(path, monkeypatch):
    # S·diag(U_safe, U_rest) for seeded random unitaries is another
    # [safe | rest] basis of S: every dim, flag and verdict stays, and Θ and
    # Φ move by round-off only
    scenario = ph.load_scenario(path)
    before = stable_part(run_pipeline(scenario))
    real = cli.orbit_stability
    rng = np.random.default_rng(21)

    def rotated(*args):
        s, stable = real(*args)
        u = np.zeros((s.dim, s.dim), dtype=complex)
        for part in (slice(0, s.n_certified), slice(s.n_certified, s.dim)):
            k = part.stop - part.start
            g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            u[part, part] = np.linalg.qr(g)[0]
        return replace(s, columns=s.columns @ u), stable

    monkeypatch.setattr(cli, "orbit_stability", rotated)
    after = stable_part(run_pipeline(scenario))
    assert after["verdicts"]["all"]
    _stable_close(before, after)


# pool members whose gauge, taken over the whole sliced basis, spread columns
# over several total degrees
GRADED = ["n2-cmp-02", "n2-cmp-08", "n2-cmp-10", "n2-cmp-11", "n2-lin-04", "n2-lin-11"]


def _sliced(member: dict, key: str) -> Coo:
    """The sliced basis :func:`subspace.split_basis` (``key`` "s", the
    orbit) or :func:`subspace.canonical_basis` (``key`` "w", the wandering
    space) receives for the member."""
    grade, prov = member["grade"], member["s"].provenance
    gw = subspace.working_grade(grade, prov.margin)
    basis = prov.working_basis
    if key == "s":
        sliced, _ = _orbit_slice(basis, subspace._inside_caps(grade, gw))
        return sliced.take_rows(subspace.embedding_positions(grade, gw))
    return subspace._capped(grade, gw, subspace._wandering(gw, basis))


@pytest.mark.parametrize("label", GRADED)
def test_canonical_columns_lie_in_one_pattern_block(pool_member, label):
    # the canonical form runs on each pattern block of the sliced basis, so
    # a column's entries off its own block are exact zeros
    member = pool_member(label)
    for key in ("s", "w"):
        block_of = np.full(member["grade"].dim, -1)
        blocks = list(_pattern_blocks(_sliced(member, key)))
        for k, (rows, _, _) in enumerate(blocks):
            block_of[rows] = k
        assert len(blocks) > 1
        for column in member[key].columns.T:
            assert np.unique(block_of[np.flatnonzero(column)]).size == 1


def _smallest_pivot(grade: ph.Grade, layout: np.ndarray) -> float:
    """The smallest Gram–Schmidt pivot residual of a canonical layout. A
    column of stratum d vanishes on the degree-d rows before its pivot row,
    and its entry there is that row's residual."""
    top = np.abs(layout) * (grade.exponents[:, :1] == outer_degrees(grade, layout, 1e-9))
    first = np.argmax(top > 1e-9, axis=0)
    return float(top[first, np.arange(layout.shape[1])].min())


@pytest.mark.parametrize("label", GRADED)
def test_canonical_basis_of_a_rotated_pool_basis(pool_member, label):
    # A rotated basis B·U is one pattern block, so it takes the whole-basis
    # gauge, whose layout is a function of the span with condition 1/ρ, ρ
    # the smallest pivot residual: 3.1e-6 for n2-cmp-10's S, 2.9e-4 for
    # n2-cmp-08's. The round-off of B·U moves the layout by at most that.
    member = pool_member(label)
    grade = member["grade"]
    rng = np.random.default_rng(6)
    for basis in (member["s"], member["w"]):
        k = basis.dim
        u = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        layout, _ = ph.canonical_basis(grade, basis.columns)
        rotated, n_safe = ph.canonical_basis(grade, basis.columns @ u)
        assert n_safe == basis.n_certified
        assert np.abs(rotated - layout).max() < 1e-13 / _smallest_pivot(grade, layout)
