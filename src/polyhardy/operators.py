"""Multiplication shifts as index maps.

A shift is a partial permutation of the monomial basis, so it is applied as
a gather over :meth:`Grade.shift_map` and never formed as a matrix.
:func:`shift_matrix` builds the same map densely, as the test reference for
the gathers and for the model tuple's defect rank.

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


def defect_sum(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Alternating sum over 0/1 multi-indices k of ``T^k T^{*k}`` for the
    square matrices ``T = mats``."""
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for picks in itertools.product((0, 1), repeat=len(mats)):
        word = np.eye(dim, dtype=complex)
        for mat, take in zip(mats, picks):
            if take:
                word = word @ mat
        total += (-1) ** sum(picks) * (word @ word.conj().T)
    return total


def spectral_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def defect_rank(ops: Sequence[OperatorMatrix], tolerance: float = 1e-8) -> DefectReport:
    """Singular values and rank of the tuple's defect on the safe band."""
    if tolerance <= 0:
        raise GradeError("tolerance must be positive")
    if not ops:
        raise GradeError("defect of an empty tuple")
    grade = ops[0].domain
    for op in ops:
        if op.domain != grade or op.codomain != grade:
            raise GradeError("defect tuple must share one grade")
    mask = grade.safe_mask
    defect = defect_sum([op.entries for op in ops])[np.ix_(mask, mask)]
    svals = np.linalg.svd(defect, compute_uv=False) if defect.size else np.zeros(0)
    rank = int(np.sum(svals > tolerance))
    return DefectReport(tuple(float(s) for s in svals), rank, tolerance)


def model_tuple(grade: Grade) -> list[OperatorMatrix]:
    """The ambient tuple (M_z, M_{z_1}, .., M_{z_n})."""
    return [shift_matrix(grade, axis) for axis in range(grade.n + 1)]
