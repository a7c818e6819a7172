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

from .errors import FlaggedWanderingError, GradeError, NotInvariantError
from .grading import Grade
from .operators import SUPPORT_CUT, VERDICT_TOL
from .operators import outer_powers, shift, shift_adjoint, shift_matrix, spectral_norm
from .subspace import SubspaceBasis, outer_degrees


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

    def block(self, rows: int | None = None, cols: int | None = None) -> MatrixPolynomial:
        """The leading ``rows`` × ``cols`` block of every coefficient; ``None``
        keeps every row or column."""
        return MatrixPolynomial(tuple(c[:rows, :cols] for c in self.coeffs))

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


def degree_residuals(
    a: MatrixPolynomial, b: MatrixPolynomial, top: int
) -> tuple[float, ...]:
    """``‖A_m − B_m‖₂`` for m = 0..top."""
    return tuple(spectral_norm(a.coeff(m) - b.coeff(m)) for m in range(top + 1))


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
class ConsistencyReport:
    residual: float
    superdiagonal_residual: float
    verdict: bool
    tolerance: float


def _check_axis(grade: Grade, axis: int) -> None:
    """Every Φ routine takes an inner axis in 0..n-1; axis i is z_{i+1}."""
    if not 0 <= axis < grade.n:
        raise GradeError("inner axis out of range")


def inner_slot_shift(grade: Grade, axis: int) -> np.ndarray:
    """Inner-variable shift acting on the degree-zero outer slot."""
    _check_axis(grade, axis)
    return shift_matrix(replace(grade, outer_cap=0), 1 + axis)


def kappa_polynomial(grade: Grade, axis: int) -> MatrixPolynomial:
    """Constant symbol of the inner shift in outer-variable coordinates."""
    return MatrixPolynomial((inner_slot_shift(grade, axis),))


def _entry_grade(s: SubspaceBasis, w: SubspaceBasis, axis: int | None, force: bool) -> Grade:
    """The grade S and W share, after the entry checks of the symbol routines
    in this order: the grades match, ``axis`` (unless ``None``) is an inner
    axis, and W has no truncation-suspect column unless ``force``."""
    if s.grade != w.grade:
        raise GradeError("subspace and wandering grade differ")
    if axis is not None:
        _check_axis(s.grade, axis)
    if w.n_flagged > 0 and not force:
        raise FlaggedWanderingError(
            f"wandering basis has {w.n_flagged} truncation-suspect column(s); "
            "pass force=True to extract anyway"
        )
    return s.grade


def extract_theta(
    s: SubspaceBasis, w: SubspaceBasis, force: bool = False
) -> MatrixPolynomial:
    """Outer symbol: coefficient m holds the outer-degree-m slice of each
    wandering column, expressed on the inner slot."""
    grade = _entry_grade(s, w, None, force)
    strata = w.columns.reshape(grade.outer_cap + 1, grade.inner_slot_dim, w.dim)
    return MatrixPolynomial(tuple(strata))


def extract_phi(
    s: SubspaceBasis, w: SubspaceBasis, axis: int, force: bool = False
) -> MatrixPolynomial:
    """Inner symbol on W-coordinates: Φ^{(m)} = P_W (P_S M_z^*)^m M_κ |_W."""
    grade = _entry_grade(s, w, axis, force)
    cert = w.columns[:, : w.n_certified]
    if cert.shape[1]:
        image = shift(grade, 1 + axis, cert)
        residual = spectral_norm(image - s.project(image))
        if residual > VERDICT_TOL:
            raise NotInvariantError(
                f"inner shift does not map certified wandering vectors into the "
                f"subspace (residual {residual:.2e})"
            )
    cur = shift(grade, 1 + axis, w.columns)
    coeffs = []
    for _ in range(grade.outer_cap + 1):
        coeffs.append(w.columns.conj().T @ cur)
        cur = s.project(shift_adjoint(grade, 0, cur))
    return MatrixPolynomial(tuple(coeffs))


def extract_phi_via_theta(
    s: SubspaceBasis, w: SubspaceBasis, axis: int, force: bool = False
) -> MatrixPolynomial:
    """Inner symbol read off against outer-shifted wandering columns."""
    grade = _entry_grade(s, w, axis, force)
    projected = s.project(shift(grade, 1 + axis, w.columns))
    stacked = outer_powers(grade, w.columns).conj().T @ projected
    return MatrixPolynomial(tuple(np.vsplit(stacked, grade.outer_cap + 1)))


def verify_intertwining(
    kappa: MatrixPolynomial,
    theta: MatrixPolynomial,
    phi: MatrixPolynomial,
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = VERDICT_TOL,
) -> IntertwineReport:
    """Degree-by-degree residuals of κ·Θ = Θ·Φ on the certified columns."""
    lhs = convolve(kappa, theta).block(cols=n_certified)
    rhs = convolve(theta, phi).block(cols=n_certified)
    residuals = degree_residuals(lhs, rhs, trusted_degree)
    max_residual = max(residuals) if residuals else 0.0
    return IntertwineReport(
        residuals, max_residual, max_residual < tolerance, trusted_degree, tolerance
    )


def is_isometric_multiplier(
    theta: MatrixPolynomial,
    n_certified: int | None = None,
    tolerance: float = VERDICT_TOL,
) -> MultiplierReport:
    """Coefficient criterion Σ_m Θ_m^* Θ_{m+k} = δ_{k0} I on certified columns."""
    block = theta.block(cols=n_certified)
    gram = adjoint_convolution(block, block)
    identity = MatrixPolynomial((np.eye(block.shape[1]),))
    residuals = degree_residuals(gram, identity, gram.degree)
    max_residual = max(residuals)
    return MultiplierReport(
        "isometry", residuals, max_residual, max_residual < tolerance, tolerance
    )


def multiplier_commutation(
    phi_a: MatrixPolynomial,
    phi_b: MatrixPolynomial,
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = VERDICT_TOL,
) -> MultiplierReport:
    """Residuals of Φ_a Φ_b − Φ_b Φ_a degree-by-degree on certified block."""
    ab = convolve(phi_a, phi_b).block(n_certified, n_certified)
    ba = convolve(phi_b, phi_a).block(n_certified, n_certified)
    residuals = degree_residuals(ab, ba, min(trusted_degree, ab.degree))
    max_residual = max(residuals) if residuals else 0.0
    return MultiplierReport(
        "commutation", residuals, max_residual, max_residual < tolerance, tolerance
    )


def wold_multiplication_consistency(
    s: SubspaceBasis,
    w: SubspaceBasis,
    phi: MatrixPolynomial,
    axis: int,
    tolerance: float = VERDICT_TOL,
) -> ConsistencyReport:
    """Compression of the inner shift to S matches multiplication by Φ in the
    Wold coordinates, entrywise over cap-exact row/column pairs."""
    grade = _entry_grade(s, w, axis, force=True)
    cap, r, nc = grade.outer_cap, w.dim, w.n_certified
    degrees = outer_degrees(grade, w.columns, SUPPORT_CUT)
    pi = outer_powers(grade, w.columns).conj().T @ s.columns
    lhs = (pi @ s.compress(1 + axis) @ pi.conj().T).reshape(cap + 1, r, cap + 1, r)
    # entry (m, j, m', l) against Φ_{m−m'}[j, l], read where both row and
    # column are cap-exact: m + deg_j ≤ cap and m' + deg_l ≤ cap
    k = min(r, nc)
    lag = np.arange(cap + 1)[:, None] - np.arange(cap + 1)[None, :]
    target = np.array([[phi.coeff(d) for d in row] for row in lag]).transpose(0, 2, 1, 3)
    err = np.abs(lhs[:, :k, :, :k] - target[:, :k, :, :k])
    fits = np.arange(cap + 1)[:, None] + degrees[None, :k] <= cap
    pairs = fits[:, :, None, None] & fits[None, None, :, :]
    superdiagonal = (lag == -1)[:, None, :, None]
    worst = float(err[pairs & ~superdiagonal].max(initial=0.0))
    worst_super = float(err[pairs & superdiagonal].max(initial=0.0))
    return ConsistencyReport(
        worst, worst_super, max(worst, worst_super) < tolerance, tolerance
    )
