"""Multiplication shifts as index maps; dense operator matrices for the API.

A shift is a partial permutation of the monomial basis, so the pipeline
applies it as a gather over :meth:`Grade.shift_map` and never forms a
matrix.  :func:`shift_matrix` builds the same map densely for callers that
need an :class:`OperatorMatrix` (projections, defects, commutators).

Truncated shifts overflow to zero past the caps, so every isometry or
commutation claim is read on the safe band only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import coo_array, csr_array, issparse

from .errors import GradeError
from .grading import Grade

_GRAM_TOL = 1e-10


@dataclass(frozen=True)
class OperatorMatrix:
    """Matrix of a linear map between two graded truncations."""

    domain: Grade
    codomain: Grade
    entries: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.codomain.dim, self.domain.dim)
        if self.entries.shape != expected:
            raise GradeError(
                f"entries shape {self.entries.shape} does not match grades {expected}"
            )
        arr = np.asarray(self.entries, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        if other.codomain != self.domain:
            raise GradeError("operator grades do not compose")
        return OperatorMatrix(other.domain, self.codomain, self.entries @ other.entries)


@dataclass(frozen=True)
class DefectReport:
    """Singular values of a defect operator on the safe band."""

    singular_values: tuple[float, ...]
    rank: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.rank != sum(1 for s in self.singular_values if s > self.tolerance):
            raise ValueError("rank inconsistent with singular values")


def shift(grade: Grade, axis: int, x):
    """Multiplication by ``z`` (axis 0) or ``z_i`` (axis ``i`` in 1..n)
    applied to the rows of the dense or sparse ``x``."""
    src, dst = grade.shift_map(axis)
    if issparse(x):
        return csr_array((np.ones(src.size), (dst, src)), shape=(grade.dim,) * 2) @ x
    out = np.zeros_like(x)
    out[dst] = x[src]
    return out


def shift_adjoint(grade: Grade, axis: int, x: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`shift` applied to the rows of ``x``."""
    src, dst = grade.shift_map(axis)
    out = np.zeros_like(x)
    out[src] = x[dst]
    return out


def coo_to_dense(a: coo_array) -> np.ndarray:
    """``a`` as a dense complex array, each stored entry copied bit for bit;
    ``a`` has no duplicate entries. (``toarray`` adds entries into zeros,
    which turns a -0.0 imaginary part into +0.0.)"""
    out = np.zeros(a.shape, dtype=complex)
    out[a.row, a.col] = a.data
    return out


def monomial_multiples(grade: Grade, x: np.ndarray, monomials: np.ndarray) -> np.ndarray:
    """Columns ``z^a z1^b1.. x``, one per row ``(a, b1..bn)`` of
    ``monomials``; entries pushed past a cap are dropped."""
    return coo_to_dense(sparse_monomial_multiples(grade, x, monomials))


def sparse_monomial_multiples(
    grade: Grade, x: np.ndarray, monomials: np.ndarray
) -> coo_array:
    """:func:`monomial_multiples` as a sparse array."""
    rows = np.flatnonzero(x)
    degrees = grade.exponents[rows, None, :-1] + monomials[None, :, :]
    fits = np.all(degrees <= grade.degree_caps, axis=2)
    targets = rows[:, None] + monomials @ grade.strides
    cols = np.broadcast_to(np.arange(len(monomials)), fits.shape)
    values = np.broadcast_to(x[rows, None], fits.shape)
    return coo_array(
        (values[fits], (targets[fits], cols[fits])), shape=(grade.dim, len(monomials))
    )


def shift_matrix(grade: Grade, axis: int) -> OperatorMatrix:
    """Dense matrix of :func:`shift`."""
    src, dst = grade.shift_map(axis)
    entries = np.zeros((grade.dim, grade.dim), dtype=complex)
    entries[dst, src] = 1.0
    return OperatorMatrix(grade, grade, entries)


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    return OperatorMatrix(op.codomain, op.domain, op.entries.conj().T)


def projection(basis) -> OperatorMatrix:
    """Orthogonal projection onto the span of an orthonormal basis.

    Accepts a SubspaceBasis or a raw column matrix paired with a grade via
    ``basis.grade``/``basis.columns`` attributes.
    """
    grade = basis.grade
    cols = np.asarray(basis.columns, dtype=complex)
    gram = cols.conj().T @ cols
    if np.linalg.norm(gram - np.eye(cols.shape[1]), 2) > _GRAM_TOL:
        raise GradeError("projection requires an orthonormal basis")
    return OperatorMatrix(grade, grade, cols @ cols.conj().T)


def defect_operator(ops: Sequence[OperatorMatrix]) -> OperatorMatrix:
    """Alternating sum over 0/1 multi-indices of ``T^k T^{*k}``."""
    if not ops:
        raise GradeError("defect of an empty tuple")
    grade = ops[0].domain
    for op in ops:
        if op.domain != grade or op.codomain != grade:
            raise GradeError("defect tuple must share one grade")
    total = np.zeros((grade.dim, grade.dim), dtype=complex)
    for picks in itertools.product((0, 1), repeat=len(ops)):
        word = np.eye(grade.dim, dtype=complex)
        for op, take in zip(ops, picks):
            if take:
                word = word @ op.entries
        total += (-1) ** sum(picks) * (word @ word.conj().T)
    return OperatorMatrix(grade, grade, total)


def compress_to_safe(op: OperatorMatrix) -> np.ndarray:
    if op.domain != op.codomain:
        raise GradeError("safe-band compression needs an endomorphism")
    mask = op.domain.safe_mask
    return op.entries[np.ix_(mask, mask)]


def spectral_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def defect_rank(ops: Sequence[OperatorMatrix], tolerance: float = 1e-8) -> DefectReport:
    if tolerance <= 0:
        raise GradeError("tolerance must be positive")
    defect = compress_to_safe(defect_operator(ops))
    svals = np.linalg.svd(defect, compute_uv=False) if defect.size else np.zeros(0)
    rank = int(np.sum(svals > tolerance))
    return DefectReport(tuple(float(s) for s in svals), rank, tolerance)


def commutation_residuals(ops: Sequence[OperatorMatrix]) -> dict:
    """Pairwise commutator and adjoint-commutator norms on the safe band."""
    if not ops:
        raise GradeError("empty tuple")
    grade = ops[0].domain
    for op in ops:
        if op.domain != grade or op.codomain != grade:
            raise GradeError("tuple must share one grade")
    mask = grade.safe_mask
    plain: dict[tuple[int, int], float] = {}
    adjointed: dict[tuple[int, int], float] = {}
    for i, j in itertools.combinations(range(len(ops)), 2):
        a, b = ops[i].entries, ops[j].entries
        plain[(i, j)] = spectral_norm((a @ b - b @ a)[np.ix_(mask, mask)])
        adjointed[(i, j)] = spectral_norm(
            (a.conj().T @ b - b @ a.conj().T)[np.ix_(mask, mask)]
        )
    doubly = all(r < 1e-10 for r in adjointed.values())
    return {
        "commutators": plain,
        "adjoint_commutators": adjointed,
        "doubly_commuting": doubly and all(r < 1e-10 for r in plain.values()),
    }


def model_tuple(grade: Grade) -> list[OperatorMatrix]:
    """The ambient tuple (M_z, M_{z_1}, .., M_{z_n})."""
    return [shift_matrix(grade, axis) for axis in range(grade.n + 1)]
