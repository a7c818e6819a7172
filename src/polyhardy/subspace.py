"""Invariant subspaces: orbit construction, wandering subspaces, rebuilds.

All spans are computed in an enlarged working grade and intersected with the
target caps by linear algebra, so that linear combinations of high-degree
orbit elements that cancel back inside the caps are not lost.  Bases are
stored in a canonical organization: the block supported on the safe band
comes first, each block ordered by ascending outer degree.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_array, csr_array, hstack, issparse, vstack
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateInputError, GradeError, NotInvariantError
from .grading import Grade, HardyVector
from .operators import (
    coo_to_dense,
    monomial_multiples,
    shift,
    sparse_monomial_multiples,
    spectral_norm,
)

SVD_CUTOFF = 1e-10
_SUPPORT_TOL = 1e-12
_RESIDUAL_ORTH_TOL = 1e-8

DEFAULT_MARGIN = 2
INVARIANCE_TOL = 1e-10


@dataclass(frozen=True)
class Provenance:
    """How a basis was produced; enough to re-derive working-grade data.

    An orbit basis also carries the orthonormal orbit basis at its working
    grade, so the wandering step does not span the same orbit again.
    """

    kind: str
    generators: tuple[HardyVector, ...] = ()
    labels: tuple[str, ...] = ()
    margin: int = 0
    working_caps: tuple[int, int] = (0, 0)
    working_basis: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal basis of a capped slice of an invariant subspace."""

    grade: Grade
    columns: np.ndarray
    provenance: Provenance
    n_certified: int = 0

    def __post_init__(self) -> None:
        cols = np.asarray(self.columns, dtype=complex)
        if cols.shape[0] != self.grade.dim:
            raise GradeError("column length does not match the grade")
        gram = cols.conj().T @ cols
        if cols.shape[1] and spectral_norm(gram - np.eye(cols.shape[1])) > 1e-10:
            raise GradeError("basis columns are not orthonormal")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def dim(self) -> int:
        return int(self.columns.shape[1])

    @property
    def n_flagged(self) -> int:
        return self.dim - self.n_certified


@dataclass(frozen=True)
class InvarianceReport:
    """Residuals ''(I - P_S) T B_safe'' per tuple member."""

    residuals: tuple[float, ...]
    verdict: bool
    tolerance: float
    n_safe_columns: int


@dataclass(frozen=True)
class WoldReport:
    residual: float
    verdict: bool
    tolerance: float
    reconstruction_caps: int
    safe_band_dim: int


def orthonormal_columns(a: np.ndarray, tol: float = SVD_CUTOFF) -> np.ndarray:
    """SVD basis of the column span with a relative singular-value cutoff."""
    if a.size == 0 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if len(s) == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    return u[:, s > tol * max(1.0, s[0])]


def null_columns(a: np.ndarray) -> np.ndarray:
    """SVD basis of the null space with the absolute cutoff ``SVD_CUTOFF``."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh.conj().T[:, int((s > SVD_CUTOFF).sum()):]


def _grouped(labels: np.ndarray, count: int):
    """Indices sorted by label, each label's start and size in that order,
    and each index's place among those of its label."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    start = np.cumsum(sizes) - sizes
    place = np.empty(labels.size, dtype=int)
    place[order] = np.arange(labels.size) - start[labels[order]]
    return order, start, sizes, place


def _pattern_blocks(a) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The blocks of the nonzero pattern of the dense or sparse matrix ``a``:
    the connected components of its rows and columns, taken as one bipartite
    graph, grouped by shape.

    A group of k blocks of shape r × c is ``(rows, cols, blocks)`` with
    ``rows`` k × r, ``cols`` k × c and ``blocks[i] = a[rows[i]][:, cols[i]]``.
    ``a`` is the direct sum of its blocks, so the union of their SVDs is the
    SVD of ``a``. Zero rows and zero columns lie in no block.
    """
    m, n = a.shape
    if issparse(a):
        a = a.tocsr()
        a.sum_duplicates()
        r = np.repeat(np.arange(m), np.diff(a.indptr))
        nonzero = a.data != 0
        r, c, v = r[nonzero], a.indices[nonzero], a.data[nonzero]
    else:
        r, c = np.nonzero(a)
        v = a[r, c]
    if v.size == 0:
        return []
    # rows are nodes 0..m-1 and columns m..m+n-1; r is sorted
    indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=m + n))])
    graph = csr_array((np.ones(v.size), c + m, indptr), shape=(m + n, m + n))
    count, labels = connected_components(graph, directed=False)
    row_order, row_start, n_rows, row_place = _grouped(labels[:m], count)
    col_order, col_start, n_cols, col_place = _grouped(labels[m:], count)
    live = np.flatnonzero((n_rows > 0) & (n_cols > 0))
    key, group, counts = np.unique(
        n_rows[live] * (n + 1) + n_cols[live], return_inverse=True, return_counts=True
    )
    shapes = np.stack(np.divmod(key, n + 1), axis=1)
    # lay the blocks out one after another, grouped by shape, and scatter
    # every entry to its place
    live = live[np.argsort(group, kind="stable")]
    size = n_rows[live] * n_cols[live]
    offset = np.zeros(count, dtype=int)
    offset[live] = np.cumsum(size) - size
    flat = np.zeros(size.sum(), dtype=v.dtype)
    lab = labels[r]
    flat[offset[lab] + row_place[r] * n_cols[lab] + col_place[c]] = v
    out = []
    for (nr, nc), members in zip(shapes, np.split(live, np.cumsum(counts)[:-1])):
        start = offset[members[0]]
        blocks = flat[start : start + members.size * nr * nc].reshape(-1, nr, nc)
        rows = row_order[row_start[members, None] + np.arange(nr)]
        cols = col_order[col_start[members, None] + np.arange(nc)]
        out.append((rows, cols, blocks))
    return out


def _matmul(a, b):
    """``a @ b``; for sparse operands, one dense product per connected
    component of the nonzero pattern of ``[a; bᵀ]``, as a sparse array."""
    if not issparse(b):
        return a @ b
    m = a.shape[0]
    rows, cols, values = [], [], []
    for index, _, blocks in _pattern_blocks(vstack([a, b.T])):
        # a's rows come first in each block's sorted index
        n_top = (index < m).sum(axis=1)
        for h in np.unique(n_top):
            same = n_top == h
            part, t = index[same], blocks[same]
            product = t[:, :h] @ t[:, h:].transpose(0, 2, 1)
            rows.append(np.broadcast_to(part[:, :h, None], product.shape).ravel())
            cols.append(np.broadcast_to(part[:, None, h:] - m, product.shape).ravel())
            values.append(product.ravel())
    if not values:
        return csr_array((m, b.shape[1]), dtype=complex)
    coords = (np.concatenate(rows), np.concatenate(cols))
    return csr_array((np.concatenate(values), coords), shape=(m, b.shape[1]))


def _place(length: int, pieces) -> csr_array:
    """Sparse matrix of ``length`` rows whose columns are the kept vectors:
    a piece ``(index, vectors, keep)`` contributes ``vectors[i, :, j]`` at
    rows ``index[i]`` for each true ``keep[i, j]``."""
    if not pieces:
        return csr_array((length, 0), dtype=complex)
    values, rows, widths = [], [], []
    for index, vectors, keep in pieces:
        i, j = np.nonzero(keep)
        values.append(vectors[i, :, j].ravel())
        rows.append(index[i].ravel())
        widths.append(np.full(i.size, index.shape[1]))
    widths = np.concatenate(widths)
    cols = np.repeat(np.arange(widths.size), widths)
    data = np.concatenate(values, dtype=complex)
    return csr_array((data, (np.concatenate(rows), cols)), shape=(length, widths.size))


def block_span(a) -> csr_array:
    """:func:`orthonormal_columns` with one SVD per block of the nonzero
    pattern of the dense or sparse ``a``; the cut ``SVD_CUTOFF·max(1, s₀)``
    takes s₀ over all blocks. The basis is returned sparse."""
    svds = [
        (rows, *np.linalg.svd(blocks, full_matrices=False)[:2])
        for rows, _, blocks in _pattern_blocks(a)
    ]
    cut = SVD_CUTOFF * max(1.0, max((s.max() for _, _, s in svds), default=0.0))
    return _place(a.shape[0], [(rows, u, s > cut) for rows, u, s in svds])


def block_null(a) -> csr_array:
    """:func:`null_columns` with one SVD per block of the nonzero pattern of
    the dense or sparse ``a``; zero columns of ``a`` are null. The basis is
    returned sparse."""
    free = np.ones(a.shape[1], dtype=bool)
    pieces = []
    for _, cols, blocks in _pattern_blocks(a):
        free[cols] = False
        _, s, vh = np.linalg.svd(blocks, full_matrices=True)
        rank = (s > SVD_CUTOFF).sum(axis=1)
        null = np.arange(cols.shape[1]) >= rank[:, None]
        pieces.append((cols, vh.conj().transpose(0, 2, 1), null))
    zero = np.flatnonzero(free)[:, None]
    unit = np.ones((zero.size, 1, 1))
    pieces.append((zero, unit, np.ones((zero.size, 1), dtype=bool)))
    return _place(a.shape[1], pieces)


def _slice(basis, keep: np.ndarray, span, null):
    """:func:`coordinate_slice` of the dense or sparse ``basis`` with the
    given span and null kernels."""
    outside = basis[~keep, :]
    if basis.shape[1] == 0 or outside.shape[0] == 0:
        return basis
    return span(_matmul(basis, null(outside)))


def coordinate_slice(basis: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(basis) ∩ {x : x vanishes off ``keep``}."""
    return _slice(basis, keep, orthonormal_columns, null_columns)


def graded_basis(grade: Grade, basis: np.ndarray) -> np.ndarray:
    """Re-basis a span so columns have minimal max outer degree, ascending."""
    if basis.shape[1] == 0:
        return basis
    done = np.zeros((grade.dim, 0), dtype=complex)
    for d in range(grade.outer_cap + 1):
        part = coordinate_slice(basis, grade.exponents[:, 0] <= d)
        fresh = orthonormal_columns(
            part - done @ (done.conj().T @ part), tol=_RESIDUAL_ORTH_TOL
        )
        done = np.hstack([done, fresh])
        if done.shape[1] == basis.shape[1]:
            break
    return done


def organize_basis(grade: Grade, basis: np.ndarray) -> tuple[np.ndarray, int]:
    """Canonical layout: [safe-supported block | remainder], each graded."""
    safe_part = graded_basis(grade, coordinate_slice(basis, grade.safe_mask))
    rest = orthonormal_columns(
        basis - safe_part @ (safe_part.conj().T @ basis), tol=_RESIDUAL_ORTH_TOL
    )
    rest = graded_basis(grade, rest)
    return np.hstack([safe_part, rest]), safe_part.shape[1]


def embedding_positions(small: Grade, big: Grade) -> np.ndarray:
    """Positions of the small grade's indices inside the big grade's order."""
    if (
        small.n != big.n
        or small.coeff_dim != big.coeff_dim
        or small.outer_cap > big.outer_cap
        or small.inner_cap > big.inner_cap
    ):
        raise GradeError("grades do not nest")
    return np.ravel_multi_index(tuple(small.exponents.T), big.shape)


def lift_dense(small: Grade, big: Grade, vectors: np.ndarray) -> np.ndarray:
    idx = embedding_positions(small, big)
    lifted = np.zeros((big.dim, vectors.shape[1]), dtype=complex)
    lifted[idx, :] = vectors
    return lifted


def restrict_dense(small: Grade, big: Grade, vectors: np.ndarray) -> np.ndarray:
    return vectors[embedding_positions(small, big), :]


def working_grade(grade: Grade, margin: int) -> Grade:
    """Grade the orbit is spanned in: both caps raised by ``margin``."""
    return replace(
        grade, outer_cap=grade.outer_cap + margin, inner_cap=grade.inner_cap + margin
    )


def wold_grade(grade: Grade) -> Grade:
    """Grade of the Wold check: large enough to hold every wandering stratum
    the target safe band touches, plus one cleaning degree."""
    caps = (grade.outer_cap - 1) + grade.n * (grade.inner_cap - 1) + 1
    return replace(grade, outer_cap=caps, inner_cap=caps)


def rebuild_grade(grade: Grade) -> Grade:
    """Outer-enlarged grade in which the image of Θ is spanned."""
    return replace(grade, outer_cap=grade.outer_cap + grade.n * grade.inner_cap)


def _inside_caps(grade: Grade, big: Grade) -> np.ndarray:
    """Mask of the positions of ``big`` that lie inside the caps of ``grade``."""
    keep = np.zeros(big.dim, dtype=bool)
    keep[embedding_positions(grade, big)] = True
    return keep


def _capped_basis(grade: Grade, big: Grade, span: np.ndarray) -> tuple[np.ndarray, int]:
    """:func:`organize_basis` of the part of span(span) that lies inside the
    caps of ``grade``, in ``grade``'s coordinates."""
    sliced = coordinate_slice(span, _inside_caps(grade, big))
    return organize_basis(grade, orthonormal_columns(restrict_dense(grade, big, sliced)))


def _monomial_orbit_columns(gw: Grade, generators: Sequence[HardyVector]) -> coo_array:
    """All monomial multiples of the generators that fit the caps of ``gw``,
    as a sparse array."""
    cols: list[coo_array] = []
    for g in generators:
        room = gw.degree_caps - (g.outer_degree(), *g.inner_degrees()) + 1
        monomials = np.stack(np.unravel_index(np.arange(np.prod(room)), room), axis=1)
        vec = lift_dense(g.grade, gw, g.to_dense()[:, None])[:, 0]
        cols.append(sparse_monomial_multiples(gw, vec, monomials))
    return hstack(cols, format="coo")


def orbit_span(
    generators: Sequence[HardyVector],
    grade: Grade,
    working_margin: int = DEFAULT_MARGIN,
    labels: Sequence[str] = (),
) -> SubspaceBasis:
    """Capped slice of the smallest joint invariant subspace containing the
    generators, spanned in an enlarged working grade and intersected with the
    target caps."""
    if not generators:
        raise DegenerateInputError("empty generator list")
    if working_margin < 0:
        raise GradeError("working margin must be nonnegative")
    cleaned = []
    for g in generators:
        if g.grade != grade:
            raise GradeError("generator grade does not match the target grade")
        if g.coeffs:
            cleaned.append(g)
    if not cleaned:
        raise DegenerateInputError("generators span {0} after cleanup")
    for g in cleaned:
        if g.outer_degree() > grade.outer_cap or any(
            b > grade.inner_cap for b in g.inner_degrees()
        ):
            raise GradeError("generator degree too high for the grade")
    gw = working_grade(grade, working_margin)
    working = orthonormal_columns(coo_to_dense(_monomial_orbit_columns(gw, cleaned)))
    working.flags.writeable = False
    organized, n_safe = _capped_basis(grade, gw, working)
    if organized.shape[1] == 0:
        raise DegenerateInputError("generators produce an empty capped slice")
    prov = Provenance(
        kind="orbit",
        generators=tuple(cleaned),
        labels=tuple(labels),
        margin=working_margin,
        working_caps=(gw.outer_cap, gw.inner_cap),
        working_basis=working,
    )
    return SubspaceBasis(grade, organized, prov, n_certified=n_safe)


def orbit_stability(
    generators: Sequence[HardyVector],
    grade: Grade,
    working_margin: int = DEFAULT_MARGIN,
    labels: Sequence[str] = (),
) -> tuple[SubspaceBasis, bool]:
    """Orbit plus the margin-stability flag: whether the capped slice keeps
    its dimension when spanned at margin + 1.

    The probe needs only that dimension, the nullity of the probe orbit
    basis's rows outside the caps, so it builds no organized basis and runs
    block by block.
    """
    base = orbit_span(generators, grade, working_margin, labels)
    gp = working_grade(grade, working_margin + 1)
    probe = block_span(_monomial_orbit_columns(gp, base.provenance.generators))
    outside = probe[~_inside_caps(grade, gp)]
    return base, block_null(outside).shape[1] == base.dim


def _wandering(grade: Grade, basis, span, null):
    """Orthonormal basis of span(basis) ⊖ z·span(basis) for the orthonormal,
    dense or sparse ``basis``, with the given span and null kernels."""
    shifted = span(shift(grade, 0, basis))
    if shifted.shape[1] == 0:
        return basis
    overlap = _matmul(shifted.conj().T, basis)
    return span(_matmul(basis, null(overlap)))


def wandering_subspace(s: SubspaceBasis) -> SubspaceBasis:
    """Basis of S ⊖ zS; certified block first, truncation-suspect block after.

    When the input carries a working-grade orbit basis (every basis from
    :func:`orbit_span` does), the wandering space is computed at that working
    grade and sliced to the target caps so that every returned vector is
    genuinely wandering; otherwise it is computed directly at the target
    grade.
    """
    grade = s.grade
    report = check_invariant(s, [0])
    if not report.verdict:
        raise NotInvariantError(
            f"subspace is not invariant under the outer shift "
            f"(residual {max(report.residuals):.2e})"
        )
    prov = s.provenance
    if prov.working_basis is not None:
        gw = working_grade(grade, prov.margin)
        ww = _wandering(gw, prov.working_basis, orthonormal_columns, null_columns)
        organized, n_cert = _capped_basis(grade, gw, ww)
    else:
        wt = _wandering(grade, s.columns, orthonormal_columns, null_columns)
        organized, n_cert = organize_basis(grade, wt)
    if organized.shape[1] == 0:
        raise DegenerateInputError(
            "the subspace has no wandering vector inside the caps"
        )
    return SubspaceBasis(
        grade,
        organized,
        Provenance(
            kind="wandering",
            generators=prov.generators,
            labels=prov.labels,
            margin=prov.margin,
            working_caps=prov.working_caps,
        ),
        n_certified=n_cert,
    )


def outer_degrees(grade: Grade, columns: np.ndarray, tol: float) -> np.ndarray:
    """Highest outer degree among each column's entries above ``tol``; 0 for
    a column with none."""
    return np.where(np.abs(columns) > tol, grade.exponents[:, :1], 0).max(axis=0)


def safe_column_mask(s: SubspaceBasis) -> np.ndarray:
    """Columns of the stored basis fully supported on the safe band."""
    unsafe = ~s.grade.safe_mask
    return np.all(np.abs(s.columns[unsafe]) < _SUPPORT_TOL, axis=0)


def check_invariant(
    s: SubspaceBasis,
    axes: Iterable[int],
    tolerance: float = INVARIANCE_TOL,
) -> InvarianceReport:
    """Per-shift residual ``‖(I − P_S)·T·B_safe‖`` over safe-supported columns,
    for ``T`` the shift along each of ``axes`` (0 is ``z``, ``i`` is ``z_i``)."""
    mask = safe_column_mask(s)
    b_safe = s.columns[:, mask]
    residuals = []
    for axis in axes:
        image = shift(s.grade, axis, b_safe)
        residuals.append(
            spectral_norm(image - s.columns @ (s.columns.conj().T @ image))
        )
    verdict = all(r < tolerance for r in residuals)
    return InvarianceReport(tuple(residuals), verdict, tolerance, int(mask.sum()))


def build_from_theta(theta, grade: Grade) -> SubspaceBasis:
    """Orthonormal basis of the image of multiplication by Θ on the capped
    one-variable Hardy space with wandering coefficients, intersected with
    the target caps."""
    from .blh import is_isometric_multiplier  # local import to avoid a cycle

    iso = is_isometric_multiplier(theta)
    if not iso.verdict:
        from .errors import NotIsometricError

        raise NotIsometricError(
            f"theta is not an isometric multiplier (residual {iso.max_residual:.2e})"
        )
    slot = grade.inner_slot_dim
    if theta.coeffs[0].shape[0] != slot:
        raise GradeError("theta codomain does not match the grade's inner slot")
    if theta.degree > grade.outer_cap:
        raise GradeError("theta degree exceeds the outer cap")
    # wandering columns at the target grade, one per domain coordinate:
    # coefficient m fills the outer-degree-m stratum
    w_cols = np.zeros((grade.dim, theta.shape[1]), dtype=complex)
    w_cols[: len(theta.coeffs) * slot] = np.vstack(theta.coeffs)
    degrees = outer_degrees(grade, w_cols, _SUPPORT_TOL)
    # image columns generated in an outer-enlarged working grade, then sliced
    gw = rebuild_grade(grade)
    lifted = lift_dense(grade, gw, w_cols)
    outer_powers = np.arange(gw.outer_cap + 1)[:, None] * np.eye(1, gw.n + 1, dtype=int)
    cols = [
        monomial_multiples(gw, lifted[:, j], outer_powers[: gw.outer_cap - deg + 1])
        for j, deg in enumerate(degrees)
    ]
    organized, n_safe = _capped_basis(grade, gw, orthonormal_columns(np.hstack(cols)))
    prov = Provenance(kind="theta-image", working_caps=(gw.outer_cap, gw.inner_cap))
    return SubspaceBasis(grade, organized, prov, n_certified=n_safe)


def wold_reconstruction(s: SubspaceBasis, tolerance: float = INVARIANCE_TOL) -> WoldReport:
    """Residual of ``P_S − Σ_m M_z^m P_W M_z^{*m}`` on the target safe band,
    computed at :func:`wold_grade`.

    Only the residual leaves this function, not a basis, so every span, null
    space and slice here is computed block by block.
    """
    prov = s.provenance
    if prov.kind != "orbit" or not prov.generators:
        raise GradeError("wold reconstruction needs orbit provenance")
    grade = s.grade
    gb = wold_grade(grade)
    sb = block_span(_monomial_orbit_columns(gb, prov.generators))
    wb = _wandering(gb, sb, block_span, block_null)
    inside_caps = np.all(gb.exponents[:, :-1] < gb.degree_caps, axis=1)
    wc = _slice(wb, inside_caps, block_span, block_null).toarray()
    # Only the rows on the target safe band E are read: the residual is
    # ‖B_E B_Eᴴ − K Kᴴ‖ with B_E = sb[E] and K = [(M_z^m wc)[E]]_m.
    band = embedding_positions(grade, gb)[grade.safe_mask]
    blocks = []
    cur = wc
    for _ in range(gb.outer_cap + 1):
        blocks.append(cur[band])
        cur = shift(gb, 0, cur)
    k = np.hstack(blocks)
    b = sb[band].toarray()
    residual = spectral_norm(b @ b.conj().T - k @ k.conj().T)
    return WoldReport(
        residual=residual,
        verdict=residual < tolerance,
        tolerance=tolerance,
        reconstruction_caps=gb.outer_cap,
        safe_band_dim=int(grade.safe_mask.sum()),
    )


def principal_angle_sines(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Sines of the min(d1, d2) principal angles, descending.

    Computed as singular values of the projection residual of the smaller
    basis against the larger span, which is stable near zero.
    """
    c1 = np.asarray(getattr(b1, "columns", b1), dtype=complex)
    c2 = np.asarray(getattr(b2, "columns", b2), dtype=complex)
    if c1.shape[1] == 0 or c2.shape[1] == 0:
        return np.zeros(0)
    small, big = (c1, c2) if c1.shape[1] <= c2.shape[1] else (c2, c1)
    residual = small - big @ (big.conj().T @ small)
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.clip(sines, 0.0, 1.0)


def max_principal_angle_sine(b1, b2) -> float:
    sines = principal_angle_sines(b1, b2)
    return float(sines[0]) if sines.size else 0.0


def subspace_from_columns(
    grade: Grade, columns: np.ndarray, kind: str = "adhoc"
) -> SubspaceBasis:
    organized, n_safe = organize_basis(grade, orthonormal_columns(columns))
    return SubspaceBasis(grade, organized, Provenance(kind=kind), n_certified=n_safe)
