"""Multiplier symbols attached to an invariant subspace.

An invariant subspace S with wandering space W is encoded by a matrix
polynomial Θ (the outer-variable symbol, columns indexed by W) together with
one matrix polynomial Φ_i per inner variable, acting on W-coordinates.  This
module extracts those symbols from capped bases and verifies the defining
relations degree-by-degree on the certified block.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    FlaggedWanderingError,
    GradeError,
    NotInvariantError,
    NotIsometricError,
)
from .grading import Grade
from .operators import shift, shift_adjoint, shift_matrix, spectral_norm
from .subspace import SubspaceBasis, outer_degrees

VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class MatrixPolynomial:
    """Polynomial Σ_m C_m w^m with matrix coefficients of uniform shape."""

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise GradeError("matrix polynomial needs at least one coefficient")
        mats = []
        shape = None
        for c in self.coeffs:
            m = np.asarray(c, dtype=complex)
            if m.ndim != 2:
                raise GradeError("matrix polynomial coefficients must be 2-d")
            if shape is None:
                shape = m.shape
            elif m.shape != shape:
                raise GradeError("matrix polynomial coefficients differ in shape")
            m = m.copy()
            m.flags.writeable = False
            mats.append(m)
        object.__setattr__(self, "coeffs", tuple(mats))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs[0].shape

    def coeff(self, m: int) -> np.ndarray:
        """Coefficient of ``w^m``; complex zeros outside ``0..degree``."""
        if 0 <= m <= self.degree:
            return self.coeffs[m]
        return np.zeros(self.shape, dtype=complex)

    def evaluate(self, w: complex) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        for m, c in enumerate(self.coeffs):
            out += c * (w**m)
        return out


def convolve(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Coefficient sequence of the product a(w)·b(w)."""
    if a.shape[1] != b.shape[0]:
        raise GradeError("inner dimensions do not match")
    out = [
        np.zeros((a.shape[0], b.shape[1]), dtype=complex)
        for _ in range(a.degree + b.degree + 1)
    ]
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca @ cb
    return MatrixPolynomial(tuple(out))


def adjoint_convolution(a: MatrixPolynomial, b: MatrixPolynomial) -> MatrixPolynomial:
    """Nonnegative-degree coefficients of a(w)^* b(w): Σ_k A_k^* B_{k+m}."""
    if a.shape[0] != b.shape[0]:
        raise GradeError("codomain dimensions do not match")
    top = max(a.degree, b.degree)
    out = []
    for m in range(top + 1):
        acc = np.zeros((a.shape[1], b.shape[1]), dtype=complex)
        for k in range(a.degree + 1):
            if k + m <= b.degree:
                acc += a.coeffs[k].conj().T @ b.coeffs[k + m]
        out.append(acc)
    return MatrixPolynomial(tuple(out))


@dataclass(frozen=True)
class IntertwineReport:
    residuals: tuple[float, ...]
    max_residual: float
    verdict: bool
    trusted_degree: int
    tolerance: float


@dataclass(frozen=True)
class MultiplierReport:
    check: str
    residuals: tuple[float, ...]
    max_residual: float
    verdict: bool
    tolerance: float


@dataclass(frozen=True)
class PurityReport:
    profile: tuple[float, ...]
    verdict: str
    tolerance: float


@dataclass(frozen=True)
class ConsistencyReport:
    residual: float
    superdiagonal_residual: float
    verdict: bool
    tolerance: float


def inner_slot_shift(grade: Grade, axis: int) -> np.ndarray:
    """Inner-variable shift acting on the degree-zero outer slot."""
    if not 0 <= axis < grade.n:
        raise GradeError("inner axis out of range")
    return shift_matrix(replace(grade, outer_cap=0), 1 + axis).entries


def kappa_polynomial(grade: Grade, axis: int) -> MatrixPolynomial:
    """Constant symbol of the inner shift in outer-variable coordinates."""
    return MatrixPolynomial((inner_slot_shift(grade, axis),))


def _require_unflagged(w: SubspaceBasis, force: bool) -> None:
    if w.n_flagged > 0 and not force:
        raise FlaggedWanderingError(
            f"wandering basis has {w.n_flagged} truncation-suspect column(s); "
            "pass force=True to extract anyway"
        )


def extract_theta(
    s: SubspaceBasis, w: SubspaceBasis, force: bool = False
) -> MatrixPolynomial:
    """Outer symbol: coefficient m holds the outer-degree-m slice of each
    wandering column, expressed on the inner slot."""
    if s.grade != w.grade:
        raise GradeError("subspace and wandering grade differ")
    _require_unflagged(w, force)
    grade = s.grade
    strata = w.columns.reshape(grade.outer_cap + 1, grade.inner_slot_dim, w.dim)
    return MatrixPolynomial(tuple(strata))


def extract_phi(
    s: SubspaceBasis, w: SubspaceBasis, axis: int, force: bool = False
) -> MatrixPolynomial:
    """Inner symbol on W-coordinates: Φ^{(m)} = P_W (P_S M_z^*)^m M_κ |_W."""
    if s.grade != w.grade:
        raise GradeError("subspace and wandering grade differ")
    if not 0 <= axis < s.grade.n:
        raise GradeError("inner axis out of range")
    _require_unflagged(w, force)
    grade = s.grade
    cert = w.columns[:, : w.n_certified]
    if cert.shape[1]:
        image = shift(grade, 1 + axis, cert)
        residual = spectral_norm(image - s.columns @ (s.columns.conj().T @ image))
        if residual > VERIFY_TOL:
            raise NotInvariantError(
                f"inner shift does not map certified wandering vectors into the "
                f"subspace (residual {residual:.2e})"
            )
    cur = shift(grade, 1 + axis, w.columns)
    coeffs = []
    for _ in range(grade.outer_cap + 1):
        coeffs.append(w.columns.conj().T @ cur)
        cur = s.columns @ (s.columns.conj().T @ shift_adjoint(grade, 0, cur))
    return MatrixPolynomial(tuple(coeffs))


def extract_phi_via_theta(
    s: SubspaceBasis, w: SubspaceBasis, axis: int, force: bool = False
) -> MatrixPolynomial:
    """Inner symbol read off against outer-shifted wandering columns."""
    if s.grade != w.grade:
        raise GradeError("subspace and wandering grade differ")
    _require_unflagged(w, force)
    grade = s.grade
    projected = s.columns @ (s.columns.conj().T @ shift(grade, 1 + axis, w.columns))
    coeffs = []
    shifted = w.columns
    for _ in range(grade.outer_cap + 1):
        coeffs.append(shifted.conj().T @ projected)
        shifted = shift(grade, 0, shifted)
    return MatrixPolynomial(tuple(coeffs))


def verify_intertwining(
    kappa: MatrixPolynomial,
    theta: MatrixPolynomial,
    phi: MatrixPolynomial,
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = VERIFY_TOL,
) -> IntertwineReport:
    """Degree-by-degree residuals of κ·Θ = Θ·Φ on the certified columns."""
    k0 = kappa.coeffs[0]
    nc = theta.shape[1] if n_certified is None else n_certified
    residuals = []
    for m in range(trusted_degree + 1):
        lhs = k0 @ theta.coeff(m)
        rhs = np.zeros_like(lhs)
        for k in range(m + 1):
            if k <= theta.degree and m - k <= phi.degree:
                rhs += theta.coeffs[k] @ phi.coeffs[m - k]
        residuals.append(spectral_norm((lhs - rhs)[:, :nc]))
    max_residual = max(residuals) if residuals else 0.0
    return IntertwineReport(
        tuple(residuals), max_residual, max_residual < tolerance, trusted_degree, tolerance
    )


def is_isometric_multiplier(
    theta: MatrixPolynomial,
    n_certified: int | None = None,
    tolerance: float = VERIFY_TOL,
) -> MultiplierReport:
    """Coefficient criterion Σ_m Θ_m^* Θ_{m+k} = δ_{k0} I on certified columns."""
    nc = theta.shape[1] if n_certified is None else n_certified
    blocks = [c[:, :nc] for c in theta.coeffs]
    residuals = []
    for k in range(theta.degree + 1):
        acc = np.zeros((nc, nc), dtype=complex)
        for m in range(theta.degree + 1 - k):
            acc += blocks[m].conj().T @ blocks[m + k]
        if k == 0:
            acc -= np.eye(nc)
        residuals.append(spectral_norm(acc))
    max_residual = max(residuals) if residuals else 0.0
    return MultiplierReport(
        "isometry", tuple(residuals), max_residual, max_residual < tolerance, tolerance
    )


def multiplier_commutation(
    phi_a: MatrixPolynomial,
    phi_b: MatrixPolynomial,
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = VERIFY_TOL,
) -> MultiplierReport:
    """Residuals of Φ_a Φ_b − Φ_b Φ_a degree-by-degree on certified block."""
    nc = phi_a.shape[0] if n_certified is None else n_certified
    ab = convolve(phi_a, phi_b)
    ba = convolve(phi_b, phi_a)
    residuals = []
    for m in range(min(trusted_degree, ab.degree) + 1):
        residuals.append(spectral_norm((ab.coeffs[m] - ba.coeffs[m])[:nc, :nc]))
    max_residual = max(residuals) if residuals else 0.0
    return MultiplierReport(
        "commutation", tuple(residuals), max_residual, max_residual < tolerance, tolerance
    )


def multiplication_matrix(phi: MatrixPolynomial, degree_cap: int) -> np.ndarray:
    """Block lower-triangular Toeplitz matrix of M_Φ on the capped space."""
    r = phi.shape[0]
    if phi.shape[1] != r:
        raise GradeError("purity needs a square symbol")
    out = np.zeros(((degree_cap + 1) * r, (degree_cap + 1) * r), dtype=complex)
    for m in range(degree_cap + 1):
        for k in range(m + 1):
            out[m * r : (m + 1) * r, k * r : (k + 1) * r] = phi.coeff(m - k)
    return out


def shift_purity_diagnostic(
    phi: MatrixPolynomial,
    degree_cap: int = 6,
    steps: int = 8,
    pure_threshold: float = 1e-6,
) -> PurityReport:
    """Heuristic purity profile: norms of powers of the adjoint of M_Φ.

    The profile of a pure (shift-like) multiplier decays to zero once the
    power exceeds the cap; a unitary direction keeps the profile at 1.
    """
    iso = is_isometric_multiplier(phi)
    if not iso.verdict:
        raise NotIsometricError(
            f"purity diagnostic needs an isometric symbol "
            f"(residual {iso.max_residual:.2e})"
        )
    big = multiplication_matrix(phi, degree_cap).conj().T
    profile = []
    cur = np.eye(big.shape[0], dtype=complex)
    for _ in range(steps):
        cur = big @ cur
        profile.append(spectral_norm(cur))
    non_increasing = all(
        profile[i + 1] <= profile[i] + 1e-12 for i in range(len(profile) - 1)
    )
    if non_increasing and profile and profile[-1] < pure_threshold:
        verdict = "pure (heuristic)"
    else:
        verdict = "not pure"
    return PurityReport(tuple(profile), verdict, pure_threshold)


def wold_multiplication_consistency(
    s: SubspaceBasis,
    w: SubspaceBasis,
    phi: MatrixPolynomial,
    axis: int,
    tolerance: float = VERIFY_TOL,
) -> ConsistencyReport:
    """Compression of the inner shift to S matches multiplication by Φ in the
    Wold coordinates, entrywise over cap-exact row/column pairs."""
    if s.grade != w.grade:
        raise GradeError("subspace and wandering grade differ")
    grade = s.grade
    cap = grade.outer_cap
    r = w.dim
    nc = w.n_certified
    degrees = outer_degrees(grade, w.columns, 1e-12)
    blocks = []
    shifted = w.columns
    for _ in range(cap + 1):
        blocks.append(shifted.conj().T @ s.columns)
        shifted = shift(grade, 0, shifted)
    pi = np.vstack(blocks)
    compressed = s.columns.conj().T @ shift(grade, 1 + axis, s.columns)
    lhs = pi @ compressed @ pi.conj().T
    worst = 0.0
    worst_super = 0.0
    for m in range(cap + 1):
        for mp in range(cap + 1):
            block = lhs[m * r : (m + 1) * r, mp * r : (mp + 1) * r]
            target = phi.coeff(m - mp)
            for j in range(min(r, nc)):
                if m + degrees[j] > cap:
                    continue
                for l in range(min(r, nc)):
                    if mp + degrees[l] > cap:
                        continue
                    err = abs(block[j, l] - target[j, l])
                    if mp == m + 1:
                        worst_super = max(worst_super, err)
                    else:
                        worst = max(worst, err)
    return ConsistencyReport(
        worst, worst_super, max(worst, worst_super) < tolerance, tolerance
    )
