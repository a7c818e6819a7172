"""Multiplication shifts as index maps, the sparse matrices they act on, and
the connected components of those matrices' patterns.

A shift is a partial permutation of the monomial basis, so it is applied as
a gather over :meth:`Grade.shift_map` and never formed as a matrix: on the
rows of a dense array, or on the row numbers of a :class:`Coo` triplet.
:func:`shift_matrix` is that gather applied to the identity, a dense
array for the inner-slot symbol, the model tuple's defect rank and the
tests' reference for the gathers.

Truncated shifts overflow to zero past the caps, so every isometry or
commutation claim is read on the safe band only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GradeError
from .grading import Grade

# The numerical policy. Every cut reads orthonormal bases, their shifts or the
# symbols read off them, whose norms are of order one; the span cut is scaled by
# max(1, s₀), s₀ the largest singular value, and the Sylvester cuts by max(1, β),
# β a bound of the whole Sylvester stack's s₀.
RANK_CUT = 1e-10  # singular values of spans, slices, wandering null spaces, the probe and K_t
SUPPORT_CUT = 1e-12  # entry moduli of a unit column that count toward its outer degree
PIVOT_CUT = 1e-8  # gauge pivots, times the smallest kept singular value of their stratum
ORTHONORMAL_TOL = 1e-10  # Frobenius norm of SᴴS − I that a SubspaceBasis accepts
VERDICT_TOL = 1e-10  # default threshold of every verdict residual (--tolerance)
CERTIFICATE_TOL = 1e-8  # certificate residuals, σ ratio, Sylvester cuts; defect rank
ANGLE_TOL = 1e-8  # largest principal angle sine between the rebuilt span and S


@dataclass(frozen=True)
class DefectReport:
    """Singular values of a defect operator on the safe band."""

    singular_values: tuple[float, ...]
    rank: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.rank != sum(1 for s in self.singular_values if s > self.tolerance):
            raise ValueError("rank inconsistent with singular values")


@dataclass(frozen=True)
class Coo:
    """A sparse matrix as its entries: ``vals[k]`` at ``(rows[k], cols[k])``,
    in any order, no two at one place."""

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, a) -> Coo:
        a = np.asarray(a)
        rows, cols = np.nonzero(a)
        return cls(a.shape, rows, cols, a[rows, cols])

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def map_rows(self, old: np.ndarray, new: np.ndarray, length: int) -> Coo:
        """Row ``old[k]`` moved to row ``new[k]`` of a ``length``-row
        matrix, for ``old`` without repeats; other rows are dropped."""
        target = np.full(self.shape[0], -1)
        target[old] = new
        rows = target[self.rows]
        kept = rows >= 0
        return Coo((length, self.shape[1]), rows[kept], self.cols[kept], self.vals[kept])

    def take_rows(self, index: np.ndarray) -> Coo:
        """The rows at ``index``, in that order."""
        return self.map_rows(index, np.arange(len(index)), len(index))


def hstack(mats: Sequence[Coo]) -> Coo:
    """The matrices side by side; they share their row count."""
    offsets = np.cumsum([0] + [m.shape[1] for m in mats])
    return Coo(
        (mats[0].shape[0], int(offsets[-1])),
        np.concatenate([m.rows for m in mats]),
        np.concatenate([m.cols + k for m, k in zip(mats, offsets)]),
        np.concatenate([m.vals for m in mats]),
    )


def _grouped(labels: np.ndarray, count: int):
    """Indices sorted by label, each label's start and size in that order,
    and each index's place among those of its label."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    start = np.cumsum(sizes) - sizes
    place = np.empty(labels.size, dtype=int)
    place[order] = np.arange(labels.size) - start[labels[order]]
    return order, start, sizes, place


def _components(r: np.ndarray, c: np.ndarray, m: int, n: int) -> tuple[int, np.ndarray]:
    """Connected components of the pattern of the entries at rows ``r`` and
    columns ``c`` of an m × n matrix, as one bipartite graph: their count
    and the labels of rows 0..m-1 then columns 0..n-1, numbered in the order
    of each component's smallest node.

    Each round hooks every root that is the larger end of an edge between
    two roots under the smallest root across such an edge, then pointer
    jumping points every node at its root. A node's root is never above it,
    so each root ends as the smallest node of its component."""
    u, v = r, c + m
    root = np.arange(m + n)
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            break
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    first = root == np.arange(m + n)
    return int(first.sum()), (np.cumsum(first) - 1)[root]


def shift(grade: Grade, axis: int, x):
    """Multiplication by ``z`` (axis 0) or ``z_i`` (axis ``i`` in 1..n)
    applied to the rows of the dense array or :class:`Coo` ``x``."""
    src, dst = grade.shift_map(axis)
    if isinstance(x, Coo):
        return x.map_rows(src, dst, grade.dim)
    out = np.zeros_like(x)
    out[dst] = x[src]
    return out


def outer_powers(grade: Grade, x: np.ndarray) -> np.ndarray:
    """``[x, z·x, .., z^D·x]`` side by side, D the grade's outer cap."""
    powers = [x]
    for _ in range(grade.outer_cap):
        powers.append(shift(grade, 0, powers[-1]))
    return np.hstack(powers)


def shift_adjoint(grade: Grade, axis: int, x: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`shift` applied to the rows of ``x``."""
    src, dst = grade.shift_map(axis)
    out = np.zeros_like(x)
    out[src] = x[dst]
    return out


def monomial_multiples(grade: Grade, x: np.ndarray, monomials: np.ndarray) -> Coo:
    """Columns ``z^a z1^b1.. x``, one per row ``(a, b1..bn)`` of
    ``monomials``; entries pushed past a cap are dropped."""
    rows = np.flatnonzero(x)
    degrees = grade.exponents[rows, None, :-1] + monomials[None, :, :]
    fits = np.all(degrees <= grade.degree_caps, axis=2)
    targets = rows[:, None] + monomials @ grade.strides
    cols = np.broadcast_to(np.arange(len(monomials)), fits.shape)
    values = np.broadcast_to(x[rows, None], fits.shape)
    return Coo((grade.dim, len(monomials)), targets[fits], cols[fits], values[fits])


def shift_matrix(grade: Grade, axis: int) -> np.ndarray:
    """Dense matrix of :func:`shift`: its gather of the identity."""
    return shift(grade, axis, np.eye(grade.dim, dtype=complex))


def defect_sum(mats: Sequence[np.ndarray], rows) -> np.ndarray:
    """Alternating sum over the 0/1 exponent tuples k of ``T^k T^{*k}`` for the
    square matrices ``T = mats``, on the rows and columns ``rows`` (any
    numpy row index). Each word is formed from those rows only:
    ``T^k[rows] = T_{i1}[rows]·T_{i2}⋯``, each longer word from a shorter
    one."""
    words = [(1, np.eye(mats[0].shape[0], dtype=complex)[rows])]
    for mat in mats:
        words += [(-sign, word @ mat) for sign, word in words]
    return sum(sign * (word @ word.conj().T) for sign, word in words)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``: the square root of the largest
    eigenvalue of the smaller of AᴴA and AAᴴ, after A is scaled by its
    largest entry modulus so that the Gram neither under- nor overflows.
    That eigenvalue is accurate to O(n·ε) relative, and so is its root.
    numpy divides a complex array by multiplying with 1/scale, which
    overflows for a subnormal scale; then each part is divided alone."""
    scale = np.abs(a).max(initial=0.0)
    if scale == 0:
        return 0.0
    subnormal = scale < 1 / np.finfo(float).max
    a = a.real / scale + 1j * (a.imag / scale) if subnormal else a / scale
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    return float(scale * np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def defect_rank(
    grade: Grade, ops: Sequence[np.ndarray], tolerance: float = CERTIFICATE_TOL
) -> DefectReport:
    """Singular values and rank of the defect of the tuple ``ops`` of
    ``grade.dim``-square matrices on the safe band of ``grade``."""
    if tolerance <= 0:
        raise GradeError("tolerance must be positive")
    if not ops:
        raise GradeError("defect of an empty tuple")
    for op in ops:
        if np.shape(op) != (grade.dim, grade.dim):
            raise GradeError(f"operator shape {np.shape(op)} does not match the grade")
    mask = grade.safe_mask
    defect = defect_sum(ops, mask)
    svals = np.linalg.svd(defect, compute_uv=False) if defect.size else np.zeros(0)
    rank = int(np.sum(svals > tolerance))
    return DefectReport(tuple(float(s) for s in svals), rank, tolerance)


def model_tuple(grade: Grade) -> list[np.ndarray]:
    """The ambient tuple (M_z, M_{z_1}, .., M_{z_n})."""
    return [shift_matrix(grade, axis) for axis in range(grade.n + 1)]
