"""Classification of invariant subspaces through their multiplier symbols.

Coincidence (unitary equivalence of the inner-symbol tuples), nested
factorization, uniqueness of the outer symbol up to a unitary constant,
module-map admissibility, Bessel-type capacity bounds, and the
doubly-commuting dichotomy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blh import (
    MatrixPolynomial,
    adjoint_convolution,
    convolve,
    degree_residuals,
    is_isometric_multiplier,
)
from .errors import GradeError, NotIsometricError
from .grading import Grade
from .operators import CERTIFICATE_TOL, VERDICT_TOL, defect_sum, spectral_norm
from .subspace import SubspaceBasis


@dataclass(frozen=True)
class EquivalenceCertificate:
    verdict: str  # "coincide" | "distinct" | "indeterminate"
    tau: np.ndarray | None
    unitarity_residual: float
    intertwining_residual: float
    nullspace_dim: int
    sigma_ratio: float  # σ_min/σ_max of the solution τ comes from; 0 if none
    tolerance: float


@dataclass(frozen=True)
class FactorizationCertificate:
    verdict: str  # "nested" | "not nested"
    psi: MatrixPolynomial | None
    containment_residual: float
    factorization_residual: float
    isometry_residual: float
    tolerance: float


@dataclass(frozen=True)
class ModuleMapReport:
    commutation_residual: float
    isometry_residual: float
    verdict: bool
    tolerance: float


@dataclass(frozen=True)
class BesselReport:
    partial_sums: tuple[float, ...]
    bound: float
    verdict: bool
    tolerance: float


@dataclass(frozen=True)
class DoubleCommuteReport:
    adjoint_commutation_residual: float
    phi_nonconstancy: float
    defect_rank: int
    defect_gap: float
    doubly_commuting: bool
    phis_constant: bool
    equivalence_holds: bool
    tolerance: float


@dataclass(frozen=True)
class LowerBoundReport:
    certificate_bound: float
    n_source_columns: int
    target_dim: int
    verdict: bool | None  # None: no proof either way


def _unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return x.reshape(cols, rows).T  # inverse of column-major stacking


def _stacked_coeffs(phis: Sequence[MatrixPolynomial], trusted_degree: int) -> np.ndarray:
    """Φ_i^{(m)} and Φ_i^{(m)ᴴ} for every axis i and degree m ≤ trusted, in
    the equation order of :func:`sylvester_nullspace`, as one 3-d array."""
    coeffs = [p.coeff(m) for p in phis for m in range(trusted_degree + 1)]
    return np.array([c for a in coeffs for c in (a, a.conj().T)])


def sylvester_nullspace(
    phis_a: Sequence[MatrixPolynomial],
    phis_b: Sequence[MatrixPolynomial],
    trusted_degree: int,
) -> tuple[np.ndarray, float]:
    """Joint nullspace of τ·Φ_a^{(m)} − Φ_b^{(m)}·τ and of the adjoint
    equation τ·Φ_a^{(m)ᴴ} − Φ_b^{(m)ᴴ}·τ over axes and degrees, as
    column-major vec(τ) columns, with the cut it was read at.

    The stacked coefficients X_e, and Y_e, are *-closed, so for seeded real
    c of unit norm H_X = Σ_e c_e(X_e + X_eᴴ) and H_Y are Hermitian, and
    every solution also solves τH_X = H_Yτ (the random-element argument of
    Murota, Kanno, Kojima and Kojima). In eigenbases U_X, U_Y of H_X, H_Y,
    T = U_Yᴴ·τ·U_X is zero off the pairs (a, b) with λ_Y,a = λ_X,b, for
    every c; a random c keeps those pairs few. The equations
    T·U_XᴴX_eU_X − U_YᴴY_eU_Y·T are solved on the matched entries of T
    alone: a stack of E·r_a·r_b rows and one column per pair, factored
    through the R of its QR, whose null space is mapped back to vec τ.
    No matched pair is an empty null space, with no stack built.
    The matching and null cuts are both ``CERTIFICATE_TOL·max(1, β)``, with
    β = (Σ_e (‖X_e‖_F + ‖Y_e‖_F)²)^{1/2} an upper bound of the whole stack's
    largest singular value: the reduced stack's own is no scale."""
    x = _stacked_coeffs(phis_a, trusted_degree)
    y = _stacked_coeffs(phis_b, trusted_degree)
    ra, rb = x.shape[1], y.shape[1]
    frobenius = np.linalg.norm(x, axis=(1, 2)) + np.linalg.norm(y, axis=(1, 2))
    cut = CERTIFICATE_TOL * max(1.0, float(np.linalg.norm(frobenius)))
    c = np.random.default_rng(0).standard_normal(len(x))
    c /= np.linalg.norm(c)
    hx, hy = np.tensordot(c, x, 1), np.tensordot(c, y, 1)
    lx, ux = np.linalg.eigh(hx + hx.conj().T)
    ly, uy = np.linalg.eigh(hy + hy.conj().T)
    a, b = np.nonzero(np.abs(ly[:, None] - lx) <= cut)
    if a.size == 0:
        return np.zeros((ra * rb, 0), dtype=complex), cut
    # row (e, l, i) is entry [i, l] of equation e's residual, in vec order; the
    # pair (a, b), T = E_ab, puts row b of X_e' = U_XᴴX_eU_X in row a of it and
    # minus column a of Y_e' = U_YᴴY_eU_Y in column b
    xt, yt = ux.conj().T @ x @ ux, uy.conj().T @ y @ uy
    pair = np.arange(a.size)
    stack = np.zeros((len(x), ra, rb, a.size), dtype=complex)
    stack[:, :, a, pair] = xt[:, b].transpose(0, 2, 1)
    stack[:, b, :, pair] -= yt[:, :, a].transpose(2, 0, 1)
    _, s, vh = np.linalg.svd(np.linalg.qr(stack.reshape(-1, a.size), mode="r"))
    # vec τ holds τ[i, l] at l·rb + i, and the pair (a, b) is τ = u_Y,a·u_X,bᴴ
    basis = (ux[:, None, b].conj() * uy[None, :, a]).reshape(ra * rb, a.size)
    return basis @ vh[(s > cut).sum() :].conj().T, cut


def coincide(
    phis_a: Sequence[MatrixPolynomial],
    phis_b: Sequence[MatrixPolynomial],
    trusted_degree: int,
    tolerance: float = CERTIFICATE_TOL,
) -> EquivalenceCertificate:
    """Decide whether a constant unitary τ with τ·Φ_a,i = Φ_b,i·τ exists on
    the trusted degree range.

    A unitary τ that intertwines the tuples also intertwines their
    adjoints, so ``sylvester_nullspace`` solves the *-closed equations, on
    the entries its seeded Hermitian elements leave free. If that solution
    space holds an invertible X, then XᴴX commutes with the *-closed tuple
    and the polar factor of X is a unitary solution; the invertible
    solutions are then dense, so one seeded random element X of the null
    space decides: the projection onto it of a seeded complex Gaussian
    vector, which depends on the null space alone and not on the basis it
    is returned in. Different ranks or an empty null space are
    ``distinct``. A σ_min/σ_max ratio of X at or below ``CERTIFICATE_TOL``
    means every solution is singular: ``distinct``. Otherwise τ = UVᴴ, the
    polar factor of X, is ``coincide`` when its unitarity and intertwining
    residuals are below ``tolerance``, and ``indeterminate`` when they are
    not: the null-space cut kept a near-solution that does not intertwine
    to the tolerance."""
    if len(phis_a) != len(phis_b):
        raise GradeError("axis counts differ")
    r = phis_a[0].shape[0]
    k = 0
    if r == phis_b[0].shape[0]:
        null, _ = sylvester_nullspace(phis_a, phis_b, trusted_degree)
        k = null.shape[1]
    if k == 0:
        return EquivalenceCertificate("distinct", None, np.inf, np.inf, 0, 0.0, tolerance)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(r * r) + 1j * rng.standard_normal(r * r)
    x = _unvec(null @ (null.conj().T @ g), r, r)
    u, sv, vh = np.linalg.svd(x)
    ratio = float(sv[-1] / sv[0])
    if ratio <= CERTIFICATE_TOL:  # every solution is singular
        return EquivalenceCertificate("distinct", None, np.inf, np.inf, k, ratio, tolerance)
    tau = u @ vh
    ures = spectral_norm(tau.conj().T @ tau - np.eye(r))
    t = MatrixPolynomial((tau,))
    residuals = [
        r
        for pa, pb in zip(phis_a, phis_b)
        for r in degree_residuals(convolve(t, pa), convolve(pb, t), trusted_degree)
    ]
    ires = max((0.0, *residuals))
    verdict = "coincide" if ures < tolerance and ires < tolerance else "indeterminate"
    return EquivalenceCertificate(verdict, tau, ures, ires, k, ratio, tolerance)


def nested_factor(
    s_inner: SubspaceBasis,
    theta_inner: MatrixPolynomial,
    s_outer: SubspaceBasis,
    theta_outer: MatrixPolynomial,
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = CERTIFICATE_TOL,
) -> FactorizationCertificate:
    """Factor Θ_inner = Θ_outer·Ψ when S_inner ⊆ S_outer, with Ψ read off by
    adjoint convolution and certified isometric on the trusted block."""
    for theta in (theta_inner, theta_outer):
        iso = is_isometric_multiplier(theta, n_certified)
        if not iso.verdict:
            raise NotIsometricError(
                f"nested factorization needs isometric symbols "
                f"(residual {iso.max_residual:.2e})"
            )
    containment = s_outer.residual(s_inner.columns)
    if containment >= tolerance:
        return FactorizationCertificate(
            "not nested", None, containment, np.inf, np.inf, tolerance
        )
    psi = adjoint_convolution(theta_outer, theta_inner)
    residuals = degree_residuals(
        theta_inner.block(cols=n_certified),
        convolve(theta_outer, psi).block(cols=n_certified),
        trusted_degree,
    )
    factorization = max((0.0, *residuals))
    iso_psi = is_isometric_multiplier(psi, n_certified).max_residual
    verdict = "nested" if factorization < tolerance and iso_psi < tolerance else "not nested"
    return FactorizationCertificate(
        verdict, psi, containment, factorization, iso_psi, tolerance
    )


def uniqueness_tau(
    theta: MatrixPolynomial,
    theta_tilde: MatrixPolynomial,
    n_certified: int | None = None,
    tolerance: float = CERTIFICATE_TOL,
) -> EquivalenceCertificate:
    """Constant τ = Σ_k Θ̃_k^* Θ_k relating two symbols of one subspace;
    verdict ''coincide'' when τ is unitary and Θ = Θ̃·τ on the trusted block."""
    a = theta.block(cols=n_certified)
    b = theta_tilde.block(cols=n_certified)
    tau = adjoint_convolution(b, a).coeffs[0]
    ures = spectral_norm(tau.conj().T @ tau - np.eye(a.shape[1]))
    residuals = degree_residuals(a, convolve(b, MatrixPolynomial((tau,))), theta.degree)
    factor = max((0.0, *residuals))
    verdict = "coincide" if ures < tolerance and factor < tolerance else "distinct"
    sv = np.linalg.svd(tau, compute_uv=False)
    ratio = float(sv[-1] / sv[0]) if sv[0] else 0.0
    return EquivalenceCertificate(verdict, tau, ures, factor, 1, ratio, tolerance)


def module_map_check(
    x: MatrixPolynomial,
    phis_source: Sequence[MatrixPolynomial],
    phis_target: Sequence[MatrixPolynomial],
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = VERDICT_TOL,
) -> ModuleMapReport:
    """Is X a module map: X·Φ_src,i = Φ_tgt,i·X degree-by-degree, and an
    isometric multiplier on the certified block?"""
    if len(phis_source) != len(phis_target):
        raise GradeError("axis counts differ")
    commutation = 0.0
    for ps, pt in zip(phis_source, phis_target):
        left = convolve(x, ps).block(cols=n_certified)
        right = convolve(pt, x).block(cols=n_certified)
        top = min(trusted_degree, max(left.degree, right.degree))
        commutation = max((commutation, *degree_residuals(left, right, top)))
    iso = is_isometric_multiplier(x, n_certified).max_residual
    verdict = commutation < tolerance and iso < tolerance
    return ModuleMapReport(commutation, iso, verdict, tolerance)


def bessel_diagnostics(
    grade: Grade,
    vectors: Sequence[np.ndarray],
    bound: float,
    tolerance: float = VERDICT_TOL,
) -> BesselReport:
    """Cumulative mass of the family per total-degree shell against a
    capacity bound; the partial sums must stay at or below the bound."""
    dense = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    for v in dense:
        if v.shape[0] != grade.dim:
            raise GradeError("vector length does not match the grade")
    shells = grade.outer_cap + grade.n * grade.inner_cap + 1
    mass = sum((np.abs(v) ** 2 for v in dense), np.zeros(grade.dim))
    shell_mass = np.bincount(grade.exponents[:, :-1].sum(axis=1), mass, shells)
    sums = np.cumsum(shell_mass).tolist()
    verdict = all(s <= bound + tolerance for s in sums)
    return BesselReport(tuple(sums), bound, verdict, tolerance)


def doubly_commuting_classification(
    s: SubspaceBasis,
    phis: Sequence[MatrixPolynomial],
    n_certified: int,
    tolerance: float = VERDICT_TOL,
) -> DoubleCommuteReport:
    """Both sides of the dichotomy, computed on safe-band compressions:
    adjoint commutation of the restricted tuple versus constancy of every
    inner symbol, together with the defect rank (the dimension of the
    wandering coefficient space when the subspace is doubly commuting).

    The safe-band compression reads the leading ``s.n_certified`` rows and
    columns: in the [safe | rest] layout those basis columns span the part
    of S supported on the safe band. Only those rows and columns are formed: each
    commutator block from ``v[:, safe]`` and ``v[safe]``, and the defect
    from the safe rows of each word (:func:`defect_sum`)."""
    ops = [s.compress(axis) for axis in range(1 + s.grade.n)]
    safe = slice(0, s.n_certified)
    adj = 0.0
    for i, vi in enumerate(ops):
        for j, vj in enumerate(ops):
            if i == j:
                continue
            comm = vi[:, safe].conj().T @ vj[:, safe] - vj[safe] @ vi[safe].conj().T
            adj = max(adj, spectral_norm(comm))
    sv = np.linalg.svd(defect_sum(ops, safe), compute_uv=False)
    rank = int((sv > CERTIFICATE_TOL).sum())
    if 0 < rank < len(sv) and sv[rank] > 0:
        gap = float(sv[rank - 1] / sv[rank])
    else:
        gap = np.inf
    nonconstancy = 0.0
    for phi in phis:
        for coeff in phi.coeffs[1:]:
            nonconstancy = max(
                nonconstancy, spectral_norm(coeff[:n_certified, :n_certified])
            )
    doubly = adj < tolerance
    constant = nonconstancy < tolerance
    return DoubleCommuteReport(
        adjoint_commutation_residual=adj,
        phi_nonconstancy=nonconstancy,
        defect_rank=rank,
        defect_gap=gap,
        doubly_commuting=doubly,
        phis_constant=constant,
        equivalence_holds=doubly == constant,
        tolerance=tolerance,
    )


def isometric_module_map_lower_bound(source: Grade, target: Grade) -> LowerBoundReport:
    """Whether no module map X sending the source slot basis into the target
    space is an isometry, decided only where a proof exists.

    The source columns are the monomials z^a·z_1^b1… (a < D, b_i < N) times
    each coordinate e < d_E of the source; X sends z^α·e to z^α·X(e), cut to
    the target caps. ``True``, with ``certificate_bound`` 1.0 ≤ ‖XᴴX − I‖:
    there are more columns than ``target.dim`` (XᴴX has a null vector), or
    some column's monomial lies past the target caps (X sends it to zero).
    Otherwise every monomial fits, and ``False`` when d_src ≤ d_tgt: the
    slot-aligned map, e to the target unit at (0, …, 0, e), sends the columns
    to distinct target units. ``None``: no proof either way."""
    if source.n != target.n:
        raise GradeError("source and target must share the inner-variable count")
    n_src = source.outer_cap * source.inner_cap**source.n * source.coeff_dim
    past_caps = n_src > 0 and (
        source.outer_cap > target.outer_cap + 1 or source.inner_cap > target.inner_cap + 1
    )
    proved = n_src > target.dim or past_caps
    return LowerBoundReport(
        certificate_bound=1.0 if proved else 0.0,
        n_source_columns=n_src,
        target_dim=target.dim,
        verdict=True if proved else (False if source.coeff_dim <= target.coeff_dim else None),
    )
