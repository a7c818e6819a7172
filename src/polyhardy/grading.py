"""Graded monomial bases, Hardy vectors, and the re-indexing unitary.

The ambient space is a degree-capped slice of a vector-valued Hardy space in
one outer variable ``z`` and ``n`` inner variables ``z1..zn``, with a
``coeff_dim``-dimensional coefficient slot.  Monomials are orthonormal; the
fixed dense ordering is lexicographic on ``(outer, inner..., coord)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import GradeError


@dataclass(frozen=True)
class Grade:
    """Truncation caps of the ambient space.

    ``safe_margin`` degrees are reserved as a guard band: residual checks for
    degree-raising operators are read only on monomials at least ``safe_margin``
    below every cap.
    """

    n: int
    outer_cap: int
    inner_cap: int
    coeff_dim: int = 1
    safe_margin: int = 1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GradeError("need at least one inner variable")
        if self.outer_cap < 0 or self.inner_cap < 0:
            raise GradeError("degree caps must be nonnegative")
        if self.coeff_dim < 1:
            raise GradeError("coefficient dimension must be positive")
        if self.safe_margin < 0:
            raise GradeError("safe margin must be nonnegative")

    @property
    def dim(self) -> int:
        return (self.outer_cap + 1) * (self.inner_cap + 1) ** self.n * self.coeff_dim

    @property
    def inner_slot_dim(self) -> int:
        """Dimension of the inner-variables-plus-coefficient slot."""
        return (self.inner_cap + 1) ** self.n * self.coeff_dim

    @property
    def shape(self) -> tuple[int, ...]:
        """Axis lengths of the dense order: outer, inner ``1..n``, coordinate."""
        return (self.outer_cap + 1, *(self.inner_cap + 1,) * self.n, self.coeff_dim)

    @property
    def degree_caps(self) -> np.ndarray:
        """Cap of each variable axis: outer, inner ``1..n``."""
        return np.array(self.shape[:-1]) - 1

    @property
    def strides(self) -> np.ndarray:
        """Dense-position step of one degree on each variable axis."""
        return np.array([math.prod(self.shape[k + 1 :]) for k in range(self.n + 1)])

    @property
    def exponents(self) -> np.ndarray:
        """``dim × (n+2)`` table of the index ``(a, b1.., e)`` at each
        position (read-only)."""
        return _exponents(self)

    @property
    def safe_mask(self) -> np.ndarray:
        """Boolean mask of the positions on the safe band (read-only)."""
        return _safe_mask(self)

    def monomial_map(self, mono) -> tuple[np.ndarray, np.ndarray]:
        """Index map of multiplication by ``z^a z1^b1..`` with ``mono = (a,
        b1..bn)``: the entry at ``src[k]`` moves to ``dst[k]``; entries
        pushed past a cap are dropped."""
        mono = np.asarray(mono)
        fits = np.all(self.exponents[:, :-1] + mono <= self.degree_caps, axis=1)
        src = np.flatnonzero(fits)
        return src, src + int(mono @ self.strides)

    def shift_map(self, axis: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`monomial_map` of ``z`` (axis 0) or ``z_i`` (axis ``i`` in
        1..n), cached per axis; the arrays are read-only."""
        if not 0 <= axis <= self.n:
            raise GradeError(f"axis {axis} out of range 0..{self.n}")
        return _shift_map(self, axis)

    def position(self, idx: MultiIndex) -> int:
        """Dense position of ``idx``: the row of :attr:`exponents` holding it."""
        key = (idx.outer, *idx.inner, idx.coord)
        if not idx.within(self):
            raise GradeError(f"index {key} outside caps of {self}")
        return int(np.ravel_multi_index(key, self.shape))


@lru_cache(maxsize=None)
def _exponents(grade: Grade) -> np.ndarray:
    table = np.stack(np.unravel_index(np.arange(grade.dim), grade.shape), axis=1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _safe_mask(grade: Grade) -> np.ndarray:
    limit = grade.degree_caps - grade.safe_margin
    mask = np.all(grade.exponents[:, :-1] <= limit, axis=1)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=None)
def _shift_map(grade: Grade, axis: int) -> tuple[np.ndarray, np.ndarray]:
    maps = grade.monomial_map(np.eye(grade.n + 1, dtype=int)[axis])
    for arr in maps:
        arr.flags.writeable = False
    return maps


@dataclass(frozen=True)
class MultiIndex:
    """Monomial exponents: outer degree, inner degrees, coefficient coordinate."""

    outer: int
    inner: tuple[int, ...]
    coord: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "inner", tuple(self.inner))
        if self.outer < 0 or self.coord < 0 or any(b < 0 for b in self.inner):
            raise GradeError("multi-index entries must be nonnegative")

    def within(self, grade: Grade) -> bool:
        return (
            self.outer <= grade.outer_cap
            and len(self.inner) == grade.n
            and all(b <= grade.inner_cap for b in self.inner)
            and self.coord < grade.coeff_dim
        )


@dataclass(frozen=True)
class PolydiscIndex:
    """Monomial exponents on the polydisc side: ``n+1`` equal variables."""

    exponents: tuple[int, ...]
    coord: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if any(k < 0 for k in self.exponents) or self.coord < 0:
            raise GradeError("polydisc exponents must be nonnegative")


@dataclass(frozen=True)
class HardyVector:
    """Element of the capped Hardy space as a sparse coefficient map."""

    grade: Grade
    coeffs: Mapping[MultiIndex, complex]

    def __post_init__(self) -> None:
        clean = {k: complex(v) for k, v in self.coeffs.items() if v != 0}
        for key in clean:
            if not key.within(self.grade):
                raise GradeError(f"index {key} violates caps of {self.grade}")
        object.__setattr__(self, "coeffs", clean)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values())))

    def to_dense(self) -> np.ndarray:
        v = np.zeros(self.grade.dim, dtype=complex)
        for key, c in self.coeffs.items():
            v[self.grade.position(key)] = c
        return v

    @classmethod
    def from_dense(cls, grade: Grade, dense: np.ndarray, tol: float = 0.0) -> HardyVector:
        if dense.shape != (grade.dim,):
            raise GradeError("dense vector length does not match the grade")
        hit = np.flatnonzero(np.abs(dense) > tol)
        coeffs = {
            MultiIndex(t[0], t[1:-1], t[-1]): complex(c)
            for t, c in zip(grade.exponents[hit].tolist(), dense[hit])
        }
        return cls(grade, coeffs)

    def outer_degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(k.outer for k in self.coeffs)

    def inner_degrees(self) -> tuple[int, ...]:
        if not self.coeffs:
            return (0,) * self.grade.n
        return tuple(
            max(k.inner[i] for k in self.coeffs) for i in range(self.grade.n)
        )


def inner_product(f: HardyVector, g: HardyVector) -> complex:
    """Hardy inner product: monomials are orthonormal."""
    if f.grade != g.grade:
        raise GradeError("inner product requires a shared grade")
    small, large = (f.coeffs, g.coeffs) if len(f.coeffs) <= len(g.coeffs) else (g.coeffs, f.coeffs)
    total = 0j
    for key, c in small.items():
        other = large.get(key)
        if other is not None:
            if small is f.coeffs:
                total += c * np.conj(other)
            else:
                total += other * np.conj(c)
    return complex(total)


def reindex_to_disc(
    v: Mapping[PolydiscIndex, complex], grade: Grade
) -> HardyVector:
    """Relabel polydisc exponents ``(k1, k2..kn+1; e)`` to ``(a=k1; b=rest; e)``.

    Pure relabeling: exact on every coefficient, preserves inner products.
    """
    coeffs: dict[MultiIndex, complex] = {}
    for key, c in v.items():
        if len(key.exponents) != grade.n + 1:
            raise GradeError("polydisc index arity does not match the grade")
        idx = MultiIndex(key.exponents[0], key.exponents[1:], key.coord)
        if not idx.within(grade):
            raise GradeError(f"exponent {key.exponents} outside caps")
        coeffs[idx] = complex(c)
    return HardyVector(grade, coeffs)


def reindex_to_polydisc(f: HardyVector) -> dict[PolydiscIndex, complex]:
    """Exact inverse of :func:`reindex_to_disc`."""
    return {
        PolydiscIndex((k.outer, *k.inner), k.coord): c for k, c in f.coeffs.items()
    }


def hardy_basis_vector(grade: Grade, idx: MultiIndex) -> HardyVector:
    return HardyVector(grade, {idx: 1.0})


def dense_matrix(grade: Grade, vectors: Iterable[HardyVector]) -> np.ndarray:
    cols = [v.to_dense() for v in vectors]
    if not cols:
        return np.zeros((grade.dim, 0), dtype=complex)
    return np.stack(cols, axis=1)
