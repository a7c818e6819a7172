"""Invariant subspaces: orbit construction, wandering subspaces, rebuilds.

All spans are computed in an enlarged working grade and intersected with the
target caps by linear algebra, so that linear combinations of high-degree
orbit elements that cancel back inside the caps are not lost.  Every orbit
is spanned by :func:`_orbit`, on the pattern components its reader needs,
by one SVD per pattern block (:func:`block_span`), and each block is kept
with its complement K, the rest of its left singular vectors. The orbit's
slice to the caps (:func:`_orbit_slice`), its wandering space W =
C·null(KᴴC) (:func:`_wandering`) and the probe count (:func:`_probe_dim`)
read K block by block, not the span. Between steps a matrix is held as a
:class:`~polyhardy.operators.Coo` triplet of numpy index arrays, and its
blocks are found by :func:`~polyhardy.operators._components`.  A basis
that leaves this module is orthonormal in the [safe-supported | rest]
layout of :func:`split_basis`.  The symbols are
read off the wandering basis alone, so only it is put in the canonical
layout of :func:`canonical_basis`, which depends on the subspace alone, not
on the basis it was computed from. The slice of W and both layouts take
one split, :func:`_row_split` (one SVD of a set of each block's rows), and
one placement, :func:`_place`.

Homogeneous generators also have a graded form that needs no enlarged
grade: their inverse system K_t = I_t^⊥ (:mod:`polyhardy.graded`), which
an orbit's provenance keeps. :func:`orbit_stability` reads the exact
dimension of [f] ∩ caps off it, and :func:`wold_reconstruction` the Wold
residual, whose W_t = C_t·null(K_tᴴC_t) is the same complement formula.
Inhomogeneous generators have no grading and keep the margin + 1 probe and
the Wold grade.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegenerateInputError, GradeError, NotInvariantError, NotIsometricError
from .graded import PieceBasis, _complement_wandering, _exact_dim, _graded_wold
from .graded import homogeneous, inverse_system
from .grading import Grade, HardyVector
from .operators import ORTHONORMAL_TOL, PIVOT_CUT, RANK_CUT, SUPPORT_CUT, VERDICT_TOL
from .operators import Coo, _components, _grouped, hstack, monomial_multiples, outer_powers
from .operators import shift, spectral_norm

DEFAULT_MARGIN = 2


@dataclass(frozen=True)
class Provenance:
    """How a basis was produced; enough to re-derive working-grade data.

    An orbit basis also carries its orbit at the working grade, on the
    pattern components that reach the caps (:func:`_orbit`), as the
    ``(rows, span, K)`` blocks of :func:`block_span`, so the wandering step
    neither spans nor factors the same orbit again.
    """

    kind: str
    generators: tuple[HardyVector, ...] = ()
    margin: int = 0
    working_basis: tuple | None = field(default=None, compare=False, repr=False)

    @cached_property
    def graded_system(self) -> tuple[PieceBasis, ...] | None:
        """The inverse system of the generators (:func:`inverse_system`) if
        every one is homogeneous, else None: one :class:`PieceBasis` K_t per
        degree t = 0 … D + nN, with ``.shape`` and ``.toarray()`` and
        orthonormal columns, empty from the first empty degree on. Solved on
        first use and kept with the orbit, so the stability flag and the
        Wold check share one solve."""
        if not homogeneous(self.generators):
            return None
        return inverse_system(self.generators, self.generators[0].grade)


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
        # the Frobenius norm bounds the 2-norm from above
        if np.linalg.norm(gram - np.eye(cols.shape[1])) > ORTHONORMAL_TOL:
            raise GradeError("basis columns are not orthonormal")
        cols.flags.writeable = False
        object.__setattr__(self, "columns", cols)

    @property
    def dim(self) -> int:
        return int(self.columns.shape[1])

    @property
    def n_flagged(self) -> int:
        return self.dim - self.n_certified

    def project(self, x: np.ndarray) -> np.ndarray:
        """``P_S·x = S(Sᴴx)``."""
        return self.columns @ (self.columns.conj().T @ x)

    def compress(self, axis: int) -> np.ndarray:
        """``Sᴴ·T·S`` for ``T`` the shift along ``axis`` (0 is ``z``, ``i`` is
        ``z_i``)."""
        return self.columns.conj().T @ shift(self.grade, axis, self.columns)


@dataclass(frozen=True)
class InvarianceReport:
    """Residuals ''(I - P_S) T B_safe'' per tuple member."""

    residuals: tuple[float, ...]
    verdict: bool
    tolerance: float
    n_safe_columns: int


@dataclass(frozen=True)
class WoldReport:
    """``kept_dim`` is the number of positions the check works in: the
    Wold-grade positions it factored (see :func:`_orbit`), or on the graded
    path those of the degree spaces P_t ⊗ E it reads (:func:`_graded_wold`);
    it is a cost, not an answer, so it is left out of the encoded report."""

    residual: float
    verdict: bool
    tolerance: float
    reconstruction_caps: int
    safe_band_dim: int
    kept_dim: int = field(metadata={"encode": False})


def _pattern_blocks(a) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The blocks of the nonzero pattern of the dense array or :class:`Coo`
    ``a``: the connected components of its rows and columns, taken as one
    bipartite graph.

    Yields each block as ``(rows, cols, block)`` with
    ``block = a[rows][:, cols]`` and ``rows``, ``cols`` ascending, laid out
    only when it is reached. Blocks come by row count, then column count,
    then component, so the bases built from them keep one column order.
    ``a`` is the direct sum of its blocks, so the union of their SVDs is the
    SVD of ``a``. Zero rows and zero columns lie in no block.
    """
    if not isinstance(a, Coo):
        a = Coo.from_dense(a)
    m, n = a.shape
    nonzero = a.vals != 0
    r, c, v = a.rows[nonzero], a.cols[nonzero], a.vals[nonzero]
    if v.size == 0:
        return
    count, labels = _components(r, c, m, n)
    row_order, row_start, n_rows, row_place = _grouped(labels[:m], count)
    col_order, col_start, n_cols, col_place = _grouped(labels[m:], count)
    live = np.flatnonzero((n_rows > 0) & (n_cols > 0))
    live = live[np.argsort(n_rows[live] * (n + 1) + n_cols[live], kind="stable")]
    # grouped by component, each block's entries lie in one slice
    label = labels[r]
    order = np.argsort(label, kind="stable")
    place = (row_place[r] * n_cols[label] + col_place[c])[order]
    v, end = v[order], [0, *np.cumsum(np.bincount(label, minlength=count)).tolist()]
    row_start, n_rows = row_start.tolist(), n_rows.tolist()
    col_start, n_cols = col_start.tolist(), n_cols.tolist()
    for k in live.tolist():
        h, w, top, left = n_rows[k], n_cols[k], row_start[k], col_start[k]
        block = np.zeros(h * w, dtype=v.dtype)
        e = slice(end[k], end[k + 1])
        block[place[e]] = v[e]
        yield row_order[top : top + h], col_order[left : left + w], block.reshape(h, w)


def _place(length: int, pieces) -> Coo:
    """Matrix of ``length`` rows with one column per row j of each piece
    ``(index, vectors)``, holding ``vectors[j]`` at the rows ``index[j]``;
    ``index`` is broadcast to the shape of ``vectors``."""
    if not pieces:
        return Coo((length, 0), np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))
    vals = np.concatenate([v.ravel() for _, v in pieces], dtype=complex)
    rows = np.concatenate([np.broadcast_to(i, v.shape).ravel() for i, v in pieces])
    widths = np.concatenate([np.full(v.shape[0], v.shape[1]) for _, v in pieces])
    cols = np.repeat(np.arange(widths.size), widths)
    return Coo((length, widths.size), rows, cols, vals)


def block_span(a) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Each block of the nonzero pattern of the dense array or :class:`Coo`
    ``a`` factored by one SVD, as ``(rows, span, K)``: orthonormal bases of
    the block's column span and of its complement over its rows ``rows``,
    so that ``[span | K]`` is unitary. Singular values at or below
    ``RANK_CUT·max(1, s₀)``, s₀ taken over all blocks, are cut, and their
    left vectors join K; so, for a tall block, does every left vector past
    its column count. The span of ``a`` is the direct sum of the blocks'."""
    svds = [
        (rows, *np.linalg.svd(block, full_matrices=block.shape[0] > block.shape[1])[:2])
        for rows, _, block in _pattern_blocks(a)
    ]
    cut = RANK_CUT * max(1.0, max((s.max() for _, _, s in svds), default=0.0))
    return tuple((rows, u[:, : (s > cut).sum()], u[:, (s > cut).sum() :]) for rows, u, s in svds)


def _spans(length: int, blocks) -> Coo:
    """The spans of the orbit ``blocks`` (:func:`block_span`) side by side,
    a matrix of ``length`` rows."""
    return _place(length, [(rows, span.T) for rows, span, _ in blocks])


def _split(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SVD of ``x[rows]`` splits the orthonormal ``x`` into the part
    ``x·V_rank`` that reaches those rows and the part ``x·V_null`` that
    vanishes on them (cut ``RANK_CUT``); also the kept singular values.
    A split by no row or by every row needs no SVD."""
    if not rows.any():
        return x[:, :0], x, np.zeros(0)
    if rows.all():
        return x, x[:, :0], np.ones(x.shape[1])
    _, s, vh = np.linalg.svd(x[rows], full_matrices=True)
    s = s[s > RANK_CUT]
    v = vh.conj().T
    return x @ v[:, : s.size], x @ v[:, s.size :], s


def _row_split(basis, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each pattern block x of the orthonormal dense array or :class:`Coo`
    ``basis`` split by one SVD of its rows in the mask ``rows``
    (:func:`_split`), as ``(at, off, reach)``: x's rows ``at``, ``off``
    spanning x's part that vanishes on ``rows`` and ``reach`` its orthogonal
    complement in span(x). Every column of ``basis`` lies in one block, so
    the parts of span(basis) are the direct sums of the blocks' parts."""
    for at, _, x in _pattern_blocks(basis):
        reach, off, _ = _split(x, rows[at])
        yield at, off, reach


def _slice(basis, keep: np.ndarray) -> Coo:
    """Orthonormal basis of span(basis) ∩ {x : x vanishes off ``keep``} for
    the orthonormal ``basis``: the parts of :func:`_row_split` that vanish
    off ``keep``, orthonormal as they stand."""
    return _place(basis.shape[0], [(at, off.T) for at, off, _ in _row_split(basis, ~keep)])


def _orbit_slice(blocks, keep: np.ndarray) -> Coo:
    """Orthonormal basis of S ∩ {x : x vanishes off ``keep``} for S the
    direct sum of the spans of the orbit ``blocks`` (:func:`block_span`):
    on each block, the null space of K[kept rows]ᴴ inside its kept rows,
    by one SVD cut at ``RANK_CUT``. A block with every row kept gives its
    span. By the CS decomposition the nontrivial singular values of
    K[kept rows] are those of span[other rows], so the cut decides as a
    split of the span would (:func:`_slice`)."""
    pieces = []
    for rows, span, k in blocks:
        at = keep[rows]
        if at.all():
            pieces.append((rows, span.T))
        elif at.any():
            u, s, _ = np.linalg.svd(k[at], full_matrices=True)
            pieces.append((rows[at], u[:, (s > RANK_CUT).sum() :].T))
    return _place(keep.size, pieces)


def _gauge(stratum: np.ndarray, rows: np.ndarray, cut: float) -> tuple[np.ndarray, list[int]]:
    """``stratum·U`` for the unitary U that makes the stratum's pivot rows
    among ``rows`` lower triangular with a positive real diagonal, and those
    pivot rows, one per column.

    The conjugated rows are Gram–Schmidt-ed in monomial order, twice per row
    so that U stays unitary to round-off; a row whose residual is at or
    below ``cut`` is no pivot. U depends only on span(stratum).
    """
    r = stratum.shape[1]
    u = np.zeros((r, r), dtype=complex)
    pivots: list[int] = []
    for i in np.flatnonzero(rows):
        row = stratum[i].conj()
        k = len(pivots)
        v = row - u[:, :k] @ (u[:, :k].conj().T @ row)
        v -= u[:, :k] @ (u[:, :k].conj().T @ v)
        norm = np.linalg.norm(v)
        if norm > cut:
            u[:, k] = v / norm
            pivots.append(i)
            if k + 1 == r:
                break
    return stratum @ u, pivots


def _strata(degree: np.ndarray, x: np.ndarray):
    """The strata of the orthonormal ``x`` whose rows have outer degrees
    ``degree``: stratum d is the part of span(x) of outer degree ≤ d
    orthogonal to the part of degree ≤ d − 1. They are peeled off from the
    top degree down: what is left at d has outer degree ≤ d, so stratum d
    is its part that reaches the rows of degree ≥ d, and at the lowest
    degree that is all of it. Yields ``(d, stratum, rows, s)``: ``rows``
    the degree-d rows, ``s`` the kept singular values."""
    for d in np.unique(degree)[::-1]:
        if x.shape[1] == 0:
            break
        reach, x, s = _split(x, degree >= d)
        if s.size:
            yield d, reach, degree == d, s


def split_basis(grade: Grade, basis) -> tuple[np.ndarray, int]:
    """Orthonormal [safe-supported | rest] basis of span(basis), for the
    orthonormal dense array or :class:`Coo` ``basis``, and the number of its
    safe-supported columns: the parts of :func:`_row_split` by the unsafe
    rows, each in block order, laid out by :func:`_place`. The split fixes
    the two parts, not a basis inside either."""
    split = list(_row_split(basis, ~grade.safe_mask))
    parts = [(at, safe.T) for at, safe, _ in split] + [(at, rest.T) for at, _, rest in split]
    return _place(grade.dim, parts).toarray(), sum(safe.shape[1] for _, safe, _ in split)


def canonical_basis(grade: Grade, basis) -> tuple[np.ndarray, int]:
    """Canonical orthonormal basis of span(basis), for the orthonormal dense
    array or :class:`Coo` ``basis``, and the number of its safe-supported
    columns.

    Layout: [safe-supported | rest], each part by ascending outer degree,
    each stratum by its columns' first pivot rows. The parts are those of
    :func:`split_basis`. The span is the direct sum of the spans of the
    pattern blocks of ``basis``, and so are both parts and every stratum, so
    each block's parts are peeled (:func:`_strata`) and gauged
    (:func:`_gauge`) on its own rows and laid out by :func:`_place`: every
    column lies in one block and is an exact zero off it. The gauge's cut
    is relative to the stratum's smallest singular value over all blocks.
    Inside a stratum the unitary is fixed by the gauge, so the result is a
    function of the subspace alone.
    """
    degree = grade.exponents[:, 0]
    peeled = []
    for rows, safe, rest in _row_split(basis, ~grade.safe_mask):
        for part, x in enumerate((safe, rest)):
            peeled += [(part, rows, *stratum) for stratum in _strata(degree[rows], x)]
    smallest: dict = {}
    for part, _, d, _, _, s in peeled:
        smallest[part, d] = min(smallest.get((part, d), np.inf), s[-1])
    placed = []
    for part, rows, d, stratum, at, _ in peeled:
        # the cut is relative to the smallest kept singular value of the
        # degree-d rows, so the Gram–Schmidt finds a full set of pivots
        gauged, pivots = _gauge(stratum, at, PIVOT_CUT * smallest[part, d])
        placed += [
            ((part, d, rows[i]), rows, column[None])
            for i, column in zip(pivots, gauged.T, strict=True)
        ]
    placed.sort(key=lambda item: item[0])
    columns = _place(grade.dim, [piece for _, *piece in placed]).toarray()
    return columns, sum(1 for (part, _, _), _, _ in placed if part == 0)


def embedding_positions(small: Grade, big: Grade) -> np.ndarray:
    """Positions of the small grade's monomials inside the big grade's order."""
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


def working_grade(grade: Grade, margin: int) -> Grade:
    """Grade the orbit is spanned in: both caps raised by ``margin``."""
    return replace(
        grade, outer_cap=grade.outer_cap + margin, inner_cap=grade.inner_cap + margin
    )


def safe_band(grade: Grade) -> Grade:
    """The safe band as a grade of its own: every cap lowered by the margin."""
    m = grade.safe_margin
    return replace(grade, outer_cap=grade.outer_cap - m, inner_cap=grade.inner_cap - m)


def wold_grade(grade: Grade) -> Grade:
    """Grade of the Wold check: large enough to hold every wandering stratum
    the target safe band touches, plus one cleaning degree."""
    band = safe_band(grade)
    caps = band.outer_cap + grade.n * band.inner_cap + 1
    return replace(grade, outer_cap=caps, inner_cap=caps)


def rebuild_grade(grade: Grade) -> Grade:
    """Outer-enlarged grade in which the image of Θ is spanned."""
    return replace(grade, outer_cap=grade.outer_cap + grade.n * grade.inner_cap)


def _inside_caps(grade: Grade, big: Grade) -> np.ndarray:
    """Mask of the positions of ``big`` that lie inside the caps of ``grade``."""
    keep = np.zeros(big.dim, dtype=bool)
    keep[embedding_positions(grade, big)] = True
    return keep


def _capped(grade: Grade, big: Grade, basis) -> Coo:
    """Orthonormal basis of the part of span(basis) that lies inside the caps
    of ``grade``, in ``grade``'s coordinates, for ``basis`` at the grade
    ``big``: an orthonormal :class:`Coo` (:func:`_slice`) or orbit blocks
    (:func:`_orbit_slice`)."""
    keep = _inside_caps(grade, big)
    sliced = _slice(basis, keep) if isinstance(basis, Coo) else _orbit_slice(basis, keep)
    return sliced.take_rows(embedding_positions(grade, big))


def orbit_span(
    generators: Sequence[HardyVector],
    grade: Grade,
    working_margin: int = DEFAULT_MARGIN,
) -> SubspaceBasis:
    """Capped slice of the smallest joint invariant subspace containing the
    generators, spanned in an enlarged working grade (:func:`_orbit`, on the
    components that reach the caps) and intersected with the target caps."""
    if not generators:
        raise DegenerateInputError("empty generator list")
    if working_margin < 0:
        raise GradeError("working margin must be nonnegative")
    cleaned = []
    for g in generators:
        if g.grade != grade:
            raise GradeError("generator grade does not match the target grade")
        if g.coeffs:
            # the power of two 2^−⌊log₂ max|c|⌋ changes the span and no
            # mantissa, and keeps the span's cuts from reading the scale
            e = 1 - math.frexp(max(abs(c) for c in g.coeffs.values()))[1]
            scaled = {
                k: complex(math.ldexp(c.real, e), math.ldexp(c.imag, e))
                for k, c in g.coeffs.items()
            }
            cleaned.append(HardyVector(grade, scaled))
    if not cleaned:
        raise DegenerateInputError("generators span {0} after cleanup")
    gw = working_grade(grade, working_margin)
    working, _ = _orbit(gw, cleaned, embedding_positions(grade, gw))
    organized, n_safe = split_basis(grade, _capped(grade, gw, working))
    if organized.shape[1] == 0:
        raise DegenerateInputError("generators produce an empty capped slice")
    prov = Provenance(
        kind="orbit",
        generators=tuple(cleaned),
        margin=working_margin,
        working_basis=working,
    )
    return SubspaceBasis(grade, organized, prov, n_certified=n_safe)


def orbit_stability(
    generators: Sequence[HardyVector],
    grade: Grade,
    working_margin: int = DEFAULT_MARGIN,
) -> tuple[SubspaceBasis, bool]:
    """Orbit plus the margin-stability flag: whether the capped slice has
    the dimension of [f] ∩ caps.

    For homogeneous generators that dimension is exact, read off their
    inverse system (:func:`_exact_dim`), which the orbit's provenance keeps
    for the Wold check. Otherwise it is the dimension of the slice spanned
    at margin + 1 (:func:`_probe_dim`).
    """
    base = orbit_span(generators, grade, working_margin)
    system = base.provenance.graded_system
    if system is None:
        return base, _probe_dim(base) == base.dim
    return base, _exact_dim(grade, system) == base.dim


def _probe_dim(s: SubspaceBasis) -> int:
    """Dimension of the capped slice of the orbit basis ``s``'s generators
    spanned at its margin + 1. It counts, block by block of the probe orbit
    (:func:`_orbit`), the columns of the slice to the caps
    (:func:`_orbit_slice`): the block's rows inside the caps less the rank
    of its complement K on them. It forms no basis of the slice."""
    grade, prov = s.grade, s.provenance
    gp = working_grade(grade, prov.margin + 1)
    inside = _inside_caps(grade, gp)
    orbit, _ = _orbit(gp, prov.generators, np.flatnonzero(inside))
    dim = 0
    for rows, _, k in orbit:
        at = inside[rows]
        rank = np.linalg.svd(k[at], compute_uv=False) > RANK_CUT
        dim += int(at.sum() - rank.sum())
    return dim


def _wandering(grade: Grade, blocks) -> Coo:
    """Orthonormal basis of S ⊖ z·S for S the direct sum of the spans of
    the orbit ``blocks`` (:func:`block_span`) at ``grade``, read off their
    complements K.

    A pattern block of [B | M_z·B] holds the orbit blocks that the shift
    of one source block reaches together, and W is the direct sum of their
    parts: C·null(KᴴC) over their rows (:func:`_complement_wandering`), K
    their complements side by side and C the orthonormal complement of z·S
    there, [e_β : β_0 = 0, or β − e_0 in no block | M_z·K_q·null(K_q[X_q])
    for each source block q], with X_q the rows of q that z truncates away
    or carries into no block. Every column is an exact zero off its pattern
    block. A block that no shift reaches is wandering whole: its span."""
    dim, count = grade.dim, len(blocks)
    # index dim stands for "past the caps" and for "in no block"
    block_of = np.full(dim + 1, -1)
    for b, (rows, _, _) in enumerate(blocks):
        block_of[rows] = b
    src, dst = grade.shift_map(0)
    up, down = np.full(dim, dim), np.full(dim, dim)
    up[src], down[dst] = dst, src
    reach = [block_of[up[rows]] for rows, _, _ in blocks]
    sources = np.repeat(np.arange(count), [r.size for r in reach])
    targets = np.concatenate([np.zeros(0, dtype=int), *reach])
    live = targets >= 0
    labels = _components(targets[live], sources[live], count, count)[1]
    # each source's M_z·K_q·null(K_q[X_q]), at the rows z carries it into
    shifted: dict[int, list] = {}
    for (rows, _, k), r, label in zip(blocks, reach, labels[count:].tolist()):
        lands = r >= 0
        if lands.any() and k.shape[1]:
            _, s, vh = np.linalg.svd(k[~lands], full_matrices=True)
            image = k[lands] @ vh[(s > RANK_CUT).sum() :].conj().T
            shifted.setdefault(label, []).append((up[rows[lands]], image))
    pieces, local = [], np.zeros(dim, dtype=int)
    for label in np.unique(labels[:count]).tolist():
        members = [blocks[b] for b in np.flatnonzero(labels[:count] == label)]
        rows = np.concatenate([rows for rows, _, _ in members])
        unit = np.flatnonzero(block_of[down[rows]] < 0)
        if unit.size == rows.size:
            [(_, span, _)] = members  # no shift reaches it
            pieces.append((rows, span.T))
            continue
        local[rows] = np.arange(rows.size)
        c = _place(rows.size, [(unit[:, None], np.ones((unit.size, 1)))] + [
            (local[at], image.T) for at, image in shifted.get(label, [])
        ])
        k = _place(rows.size, [(local[at], comp.T) for at, _, comp in members])
        pieces.append((rows, _complement_wandering(k.toarray(), c.toarray()).T))
    return _place(dim, pieces)


def wandering_subspace(s: SubspaceBasis) -> SubspaceBasis:
    """Basis of S ⊖ zS; certified block first, truncation-suspect block after.

    The wandering space is computed at the working grade of the orbit basis
    that ``s`` carries (every basis from :func:`orbit_span` does) and sliced
    to the target caps, so that every returned vector is genuinely
    wandering. A basis without one raises :class:`GradeError`.
    """
    grade = s.grade
    report = check_invariant(s, [0])
    if not report.verdict:
        raise NotInvariantError(
            f"subspace is not invariant under the outer shift "
            f"(residual {max(report.residuals):.2e})"
        )
    prov = s.provenance
    if prov.working_basis is None:
        raise GradeError("the wandering subspace needs orbit provenance")
    gw = working_grade(grade, prov.margin)
    wandering = _capped(grade, gw, _wandering(gw, prov.working_basis))
    organized, n_cert = canonical_basis(grade, wandering)
    if organized.shape[1] == 0:
        raise DegenerateInputError(
            "the subspace has no wandering vector inside the caps"
        )
    return SubspaceBasis(grade, organized, Provenance("wandering"), n_certified=n_cert)


def outer_degrees(grade: Grade, columns: np.ndarray, tol: float) -> np.ndarray:
    """Highest outer degree among each column's entries above ``tol``; 0 for
    a column with none."""
    return np.where(np.abs(columns) > tol, grade.exponents[:, :1], 0).max(axis=0)


def check_invariant(
    s: SubspaceBasis,
    axes: Iterable[int],
    tolerance: float = VERDICT_TOL,
) -> InvarianceReport:
    """Per-shift residual ``‖(I − P_S)·T·B_safe‖`` over safe-supported columns,
    for ``T`` the shift along each of ``axes`` (0 is ``z``, ``i`` is ``z_i``).
    The safe-supported columns are the leading ``s.n_certified`` of the
    [safe | rest] layout."""
    b_safe = s.columns[:, : s.n_certified]
    residuals = []
    for axis in axes:
        image = shift(s.grade, axis, b_safe)
        residuals.append(spectral_norm(image - s.project(image)))
    verdict = all(r < tolerance for r in residuals)
    return InvarianceReport(tuple(residuals), verdict, tolerance, s.n_certified)


def build_from_theta(theta, grade: Grade) -> SubspaceBasis:
    """Orthonormal basis of the image of multiplication by Θ on the capped
    one-variable Hardy space with wandering coefficients, intersected with
    the target caps. The image columns z^k·Θe_j fit the rebuild grade
    untruncated, so their Gram matrix is the block-Toeplitz matrix of the
    Σ_m Θ_mᴴΘ_{m+k} that the isometry check bounds: they are sliced as they
    stand, with no span, and :class:`SubspaceBasis` checks the result."""
    from .blh import is_isometric_multiplier  # local import to avoid a cycle

    iso = is_isometric_multiplier(theta)
    if not iso.verdict:
        raise NotIsometricError(
            f"theta is not an isometric multiplier (residual {iso.max_residual:.2e})"
        )
    slot = grade.inner_slot_dim
    if theta.coeffs[0].shape[0] != slot:
        raise GradeError("theta codomain does not match the grade's inner slot")
    if theta.degree > grade.outer_cap:
        raise GradeError("theta degree exceeds the outer cap")
    # wandering columns, one per domain coordinate: coefficient m fills the
    # outer-degree-m stratum, the same leading rows in the target grade and
    # in the rebuild grade, which differ only in the outer cap
    gw = rebuild_grade(grade)
    lifted = np.zeros((gw.dim, theta.shape[1]), dtype=complex)
    lifted[: len(theta.coeffs) * slot] = np.vstack(theta.coeffs)
    degrees = outer_degrees(grade, lifted[: grade.dim], SUPPORT_CUT)
    z_powers = np.arange(gw.outer_cap + 1)[:, None] * np.eye(1, gw.n + 1, dtype=int)
    cols = [
        monomial_multiples(gw, lifted[:, j], z_powers[: gw.outer_cap - deg + 1])
        for j, deg in enumerate(degrees)
    ]
    organized, n_safe = split_basis(grade, _capped(grade, gw, hstack(cols)))
    prov = Provenance("theta-image")
    return SubspaceBasis(grade, organized, prov, n_certified=n_safe)


def _readable_columns(gb: Grade, a: Coo, band: np.ndarray) -> tuple[Coo, int]:
    """The orbit columns ``a`` at the grade ``gb`` with only the entries of
    the pattern components a residual read on the rows ``band`` depends on,
    and the number of rows of those components.

    A component is kept if it touches ``band``, if z shifts it into a kept
    component (the kept one's wandering space needs it), or if it shares such
    a preimage with a kept component (the two share a wandering null space);
    closed until nothing changes. The span, wandering space and slice of the
    kept entries are those of all entries, restricted to the kept
    components. z only raises degrees and ``band`` is closed under lowering
    the outer degree, so no other component reaches it. For homogeneous
    generators a component is one total degree, and the kept ones are those
    up to the largest total degree on ``band``.
    """
    m, n = a.shape
    occupied = np.zeros(m, dtype=bool)
    occupied[a.rows] = True
    count, labels = _components(a.rows, a.cols, m, n)
    src, dst = gb.shift_map(0)
    live = occupied[src] & occupied[dst]
    # z shifts component source[k] into component image[k]
    source, image = labels[src[live]], labels[dst[live]]
    keep = np.zeros(count, dtype=bool)
    keep[labels[band[occupied[band]]]] = True
    while True:
        pre = np.zeros(count, dtype=bool)
        pre[source[keep[image]]] = True
        grown = keep | pre
        grown[image[pre[source]]] = True
        if np.array_equal(grown, keep):
            break
        keep = grown
    kept_rows = int((keep[labels[:m]] & occupied).sum())
    entries = keep[labels[a.rows]]
    return Coo(a.shape, a.rows[entries], a.cols[entries], a.vals[entries]), kept_rows


def _orbit(big: Grade, generators: Sequence[HardyVector], reads: np.ndarray) -> tuple[tuple, int]:
    """The orbit of the generators at the grade ``big`` as the ``(rows,
    span, K)`` blocks of :func:`block_span`, factored from all their
    monomial multiples that fit its caps, on only the pattern components
    that a read of the rows ``reads`` depends on
    (:func:`_readable_columns`); and the number of rows of those components.
    ``reads`` must be closed under lowering the outer degree: the caps box
    and the safe band are, so for them the pruned orbit is exact."""
    cols = []
    for g in generators:
        room = big.degree_caps - (g.outer_degree(), *g.inner_degrees()) + 1
        monomials = np.stack(np.unravel_index(np.arange(np.prod(room)), room), axis=1)
        vec = lift_dense(g.grade, big, g.to_dense()[:, None])[:, 0]
        cols.append(monomial_multiples(big, vec, monomials))
    orbit, kept_rows = _readable_columns(big, hstack(cols), reads)
    return block_span(orbit), kept_rows


def _orbit_wold(grade: Grade, generators: Sequence[HardyVector]) -> tuple[float, int]:
    """The Wold residual on the safe band E computed at :func:`wold_grade`
    on the orbit's pattern components that it reads (:func:`_orbit`, with
    W from their complements by :func:`_wandering`), and the number of
    Wold-grade positions it factored. It serves generators without a
    grading; for homogeneous ones it is the tests' reference.

    The residual is ‖B_E B_Eᴴ − K Kᴴ‖ with B_E = sb[E] and K = [(M_z^m
    wc)[E]]_m. E is closed under lowering the outer degree, so M_z^m is
    taken at E's grade and applied to wc[E]."""
    e, gb = safe_band(grade), wold_grade(grade)
    band = embedding_positions(e, gb)
    sb, kept_dim = _orbit(gb, generators, band)
    wb = _wandering(gb, sb)
    inside_caps = np.all(gb.exponents[:, :-1] < gb.degree_caps, axis=1)
    k = outer_powers(e, _slice(wb, inside_caps).take_rows(band).toarray())
    b = _spans(gb.dim, sb).take_rows(band).toarray()
    return spectral_norm(b @ b.conj().T - k @ k.conj().T), kept_dim


def wold_reconstruction(s: SubspaceBasis, tolerance: float = VERDICT_TOL) -> WoldReport:
    """Residual of ``P_S − Σ_m M_z^m P_W M_z^{*m}`` on the target safe band:
    for homogeneous generators read degree by degree off their inverse
    system (:func:`_graded_wold`, with :attr:`Provenance.graded_system`),
    for any other at the Wold grade (:func:`_orbit_wold`)."""
    prov = s.provenance
    if prov.kind != "orbit" or not prov.generators:
        raise GradeError("wold reconstruction needs orbit provenance")
    if prov.graded_system is not None:
        residual, kept_dim = _graded_wold(safe_band(s.grade), prov.graded_system)
    else:
        residual, kept_dim = _orbit_wold(s.grade, prov.generators)
    return WoldReport(
        residual=residual,
        verdict=residual < tolerance,
        tolerance=tolerance,
        reconstruction_caps=wold_grade(s.grade).outer_cap,
        safe_band_dim=safe_band(s.grade).dim,
        kept_dim=kept_dim,
    )


def max_principal_angle_sine(b1, b2) -> float:
    """The largest principal angle sine, 0 if either basis is empty: the
    2-norm of the projection residual of the smaller basis against the
    larger span, whose singular values are the sines of the min(d1, d2)
    principal angles; no SVD."""
    c1 = np.asarray(getattr(b1, "columns", b1), dtype=complex)
    c2 = np.asarray(getattr(b2, "columns", b2), dtype=complex)
    small, big = (c1, c2) if c1.shape[1] <= c2.shape[1] else (c2, c1)
    return min(spectral_norm(small - big @ (big.conj().T @ small)), 1.0)


def subspace_from_columns(grade: Grade, columns: np.ndarray) -> SubspaceBasis:
    organized, n_safe = split_basis(grade, _spans(grade.dim, block_span(columns)))
    return SubspaceBasis(grade, organized, Provenance("adhoc"), n_certified=n_safe)
