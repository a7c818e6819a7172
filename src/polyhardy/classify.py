"""Classification of invariant subspaces through their multiplier symbols.

Coincidence (unitary equivalence of the inner-symbol tuples), nested
factorization, uniqueness of the outer symbol up to a unitary constant,
module-map admissibility, Bessel-type capacity bounds, and the
doubly-commuting dichotomy.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .blh import (
    MatrixPolynomial,
    adjoint_convolution,
    convolve,
    is_isometric_multiplier,
)
from .errors import GradeError, NotIsometricError
from .grading import Grade
from .operators import defect_sum, shift, spectral_norm
from .subspace import SubspaceBasis, coordinate_slice

CLASSIFY_TOL = 1e-8
CONSTANT_TOL = 1e-10
MAX_SEARCH_NULLSPACE = 8


@dataclass(frozen=True)
class EquivalenceCertificate:
    verdict: str  # "coincide" | "distinct" | "indeterminate"
    tau: np.ndarray | None
    unitarity_residual: float
    intertwining_residual: float
    nullspace_dim: int
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
    optimized_min_residual: float
    certificate_bound: float
    n_source_columns: int
    target_dim: int
    verdict: bool
    threshold: float
    seeds: int


def _vec(mat: np.ndarray) -> np.ndarray:
    return mat.T.reshape(-1)  # column-major stacking


def _unvec(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return x.reshape(cols, rows).T


def sylvester_nullspace(
    phis_a: Sequence[MatrixPolynomial],
    phis_b: Sequence[MatrixPolynomial],
    trusted_degree: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Joint nullspace of τ·Φ_a^{(m)} − Φ_b^{(m)}·τ over axes and degrees."""
    if len(phis_a) != len(phis_b):
        raise GradeError("axis counts differ")
    ra = phis_a[0].shape[0]
    rb = phis_b[0].shape[0]
    rows = []
    for pa, pb in zip(phis_a, phis_b):
        for m in range(trusted_degree + 1):
            a, b = pa.coeff(m), pb.coeff(m)
            rows.append(np.kron(a.T, np.eye(rb)) - np.kron(np.eye(ra), b))
    stack = np.vstack(rows)
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    tol = CLASSIFY_TOL * max(1.0, s[0] if len(s) else 1.0)
    k = int((s < tol).sum())
    if len(s) < ra * rb:
        k += ra * rb - len(s)
    if k == 0:
        return np.zeros((ra * rb, 0), dtype=complex), s
    return vh.conj().T[:, stack.shape[1] - k :], s


def _intertwining_residual(
    tau: np.ndarray,
    phis_a: Sequence[MatrixPolynomial],
    phis_b: Sequence[MatrixPolynomial],
    trusted_degree: int,
) -> float:
    worst = 0.0
    for pa, pb in zip(phis_a, phis_b):
        for m in range(trusted_degree + 1):
            worst = max(worst, spectral_norm(tau @ pa.coeff(m) - pb.coeff(m) @ tau))
    return worst


def coincide(
    phis_a: Sequence[MatrixPolynomial],
    phis_b: Sequence[MatrixPolynomial],
    trusted_degree: int,
    tolerance: float = CLASSIFY_TOL,
) -> EquivalenceCertificate:
    """Search for a constant unitary τ with τ·Φ_a,i = Φ_b,i·τ on the trusted
    degree range.  Nullspace dimension 1 decides; small dimensions are
    searched by polar-projection iteration; larger ones are indeterminate."""
    ra = phis_a[0].shape[0]
    rb = phis_b[0].shape[0]
    if ra != rb:
        return EquivalenceCertificate(
            "distinct", None, np.inf, np.inf, 0, tolerance
        )
    null, _ = sylvester_nullspace(phis_a, phis_b, trusted_degree)
    k = null.shape[1]
    if k == 0:
        return EquivalenceCertificate("distinct", None, np.inf, np.inf, 0, tolerance)
    if k == 1:
        tau = _unvec(null[:, 0], rb, ra)
        tau = tau * (np.sqrt(ra) / np.linalg.norm(tau, "fro"))
        ures = spectral_norm(tau.conj().T @ tau - np.eye(ra))
        ires = _intertwining_residual(tau, phis_a, phis_b, trusted_degree)
        # a 1-d solution space that is not unitary after Frobenius
        # normalization contains no unitary at all
        verdict = "coincide" if ures < tolerance and ires < tolerance else "distinct"
        return EquivalenceCertificate(verdict, tau, ures, ires, k, tolerance)
    if k > MAX_SEARCH_NULLSPACE:
        return EquivalenceCertificate("indeterminate", None, np.inf, np.inf, k, tolerance)
    best_tau = None
    best_ures = np.inf
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x = null @ (rng.normal(size=k) + 1j * rng.normal(size=k))
        cand = _unvec(x, rb, ra)
        for _ in range(100):
            u, _, vh = np.linalg.svd(cand)
            projected = null @ (null.conj().T @ _vec(u @ vh))
            cand = _unvec(projected, rb, ra)
        u, _, vh = np.linalg.svd(cand)
        projected = null @ (null.conj().T @ _vec(u @ vh))
        cand = _unvec(projected, rb, ra)
        ures = spectral_norm(cand.conj().T @ cand - np.eye(ra))
        if ures < best_ures:
            best_ures = ures
            best_tau = cand
    if best_tau is not None and best_ures < tolerance:
        ires = _intertwining_residual(best_tau, phis_a, phis_b, trusted_degree)
        if ires < tolerance:
            return EquivalenceCertificate(
                "coincide", best_tau, best_ures, ires, k, tolerance
            )
    return EquivalenceCertificate(
        "indeterminate", best_tau, best_ures, np.inf, k, tolerance
    )


def nested_factor(
    s_inner: SubspaceBasis,
    theta_inner: MatrixPolynomial,
    s_outer: SubspaceBasis,
    theta_outer: MatrixPolynomial,
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = CLASSIFY_TOL,
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
    small = s_inner.columns
    big = s_outer.columns
    containment = spectral_norm(small - big @ (big.conj().T @ small))
    if containment >= tolerance:
        return FactorizationCertificate(
            "not nested", None, containment, np.inf, np.inf, tolerance
        )
    psi = adjoint_convolution(theta_outer, theta_inner)
    nc = theta_inner.shape[1] if n_certified is None else n_certified
    product = convolve(theta_outer, psi)
    factorization = 0.0
    for m in range(trusted_degree + 1):
        residual = theta_inner.coeff(m) - product.coeff(m)
        factorization = max(factorization, spectral_norm(residual[:, :nc]))
    iso_psi = is_isometric_multiplier(psi, nc).max_residual
    verdict = "nested" if factorization < tolerance and iso_psi < tolerance else "not nested"
    return FactorizationCertificate(
        verdict, psi, containment, factorization, iso_psi, tolerance
    )


def uniqueness_tau(
    theta: MatrixPolynomial,
    theta_tilde: MatrixPolynomial,
    n_certified: int | None = None,
    tolerance: float = CLASSIFY_TOL,
) -> EquivalenceCertificate:
    """Constant τ = Σ_k Θ̃_k^* Θ_k relating two symbols of one subspace;
    verdict ''coincide'' when τ is unitary and Θ = Θ̃·τ on the trusted block."""
    nca = theta.shape[1] if n_certified is None else n_certified
    ncb = theta_tilde.shape[1] if n_certified is None else n_certified
    tau = np.zeros((ncb, nca), dtype=complex)
    for k in range(min(theta.degree, theta_tilde.degree) + 1):
        tau += theta_tilde.coeffs[k][:, :ncb].conj().T @ theta.coeffs[k][:, :nca]
    ures = spectral_norm(tau.conj().T @ tau - np.eye(nca))
    factor = 0.0
    for m in range(theta.degree + 1):
        tilde = theta_tilde.coeff(m)[:, :ncb]
        factor = max(
            factor, spectral_norm(theta.coeffs[m][:, :nca] - tilde @ tau)
        )
    verdict = "coincide" if ures < tolerance and factor < tolerance else "distinct"
    return EquivalenceCertificate(verdict, tau, ures, factor, 1, tolerance)


def module_map_check(
    x: MatrixPolynomial,
    phis_source: Sequence[MatrixPolynomial],
    phis_target: Sequence[MatrixPolynomial],
    trusted_degree: int,
    n_certified: int | None = None,
    tolerance: float = CONSTANT_TOL,
) -> ModuleMapReport:
    """Is X a module map: X·Φ_src,i = Φ_tgt,i·X degree-by-degree, and an
    isometric multiplier on the certified block?"""
    if len(phis_source) != len(phis_target):
        raise GradeError("axis counts differ")
    nc_cols = x.shape[1] if n_certified is None else n_certified
    commutation = 0.0
    for ps, pt in zip(phis_source, phis_target):
        left = convolve(x, ps)
        right = convolve(pt, x)
        for m in range(min(trusted_degree, max(left.degree, right.degree)) + 1):
            residual = left.coeff(m) - right.coeff(m)
            commutation = max(commutation, spectral_norm(residual[:, :nc_cols]))
    iso = is_isometric_multiplier(x, n_certified).max_residual
    verdict = commutation < tolerance and iso < tolerance
    return ModuleMapReport(commutation, iso, verdict, tolerance)


def bessel_diagnostics(
    grade: Grade,
    vectors: Sequence[np.ndarray],
    bound: float,
    tolerance: float = CONSTANT_TOL,
) -> BesselReport:
    """Cumulative mass of the family per total-degree shell against a
    capacity bound; the partial sums must stay at or below the bound."""
    dense = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    for v in dense:
        if v.shape[0] != grade.dim:
            raise GradeError("vector length does not match the grade")
    top_shell = grade.outer_cap + grade.n * grade.inner_cap
    sums = []
    total = 0.0
    for shell in range(top_shell + 1):
        for i, t in enumerate(grade.indices):
            if sum(t[:-1]) == shell:
                total += float(sum(abs(v[i]) ** 2 for v in dense))
        sums.append(total)
    verdict = all(s <= bound + tolerance for s in sums)
    return BesselReport(tuple(sums), bound, verdict, tolerance)


def _restricted_tuple(s: SubspaceBasis) -> list[np.ndarray]:
    return [
        s.columns.conj().T @ shift(s.grade, ax, s.columns)
        for ax in range(1 + s.grade.n)
    ]


def _safe_frame(s: SubspaceBasis) -> np.ndarray:
    safe_block = coordinate_slice(s.columns, s.grade.safe_mask)
    return s.columns.conj().T @ safe_block


def doubly_commuting_classification(
    s: SubspaceBasis,
    phis: Sequence[MatrixPolynomial],
    n_certified: int,
    tolerance: float = CONSTANT_TOL,
    rank_tolerance: float = CLASSIFY_TOL,
) -> DoubleCommuteReport:
    """Both sides of the dichotomy, computed on safe-band compressions:
    adjoint commutation of the restricted tuple versus constancy of every
    inner symbol, together with the defect rank (the dimension of the
    wandering coefficient space when the subspace is doubly commuting)."""
    ops = _restricted_tuple(s)
    frame = _safe_frame(s)
    adj = 0.0
    for i, vi in enumerate(ops):
        for j, vj in enumerate(ops):
            if i == j:
                continue
            comm = vi.conj().T @ vj - vj @ vi.conj().T
            adj = max(adj, spectral_norm(frame.conj().T @ comm @ frame))
    sv = np.linalg.svd(frame.conj().T @ defect_sum(ops) @ frame, compute_uv=False)
    rank = int((sv > rank_tolerance).sum())
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


def isometric_module_map_lower_bound(
    source: Grade,
    target: Grade,
    seeds: int = 4,
    maxiter: int = 500,
    threshold: float = 0.3,
) -> LowerBoundReport:
    """Numerical lower bound on ‖X^*X − I‖ over module maps X sending the
    source slot basis into the target space, columns generated by cap shifts
    of per-slot symbol vectors; plus a dimension-count certificate."""
    if source.n != target.n:
        raise GradeError("source and target must share the inner-variable count")
    src_cols = [
        (a, *bs, e)
        for a in range(source.outer_cap)
        for bs in itertools.product(*[range(source.inner_cap)] * source.n)
        for e in range(source.coeff_dim)
    ]
    n_src = len(src_cols)
    t_dim = target.dim
    d_src = source.coeff_dim
    maps = [target.monomial_map(key[:-1]) for key in src_cols]

    def build(xs: np.ndarray) -> np.ndarray:
        rows = np.zeros((n_src, t_dim), dtype=complex)
        for idx, (key, (src, dst)) in enumerate(zip(src_cols, maps)):
            rows[idx, dst] = xs[key[-1], src]
        return rows.T

    def objective(xflat: np.ndarray) -> tuple[float, np.ndarray]:
        xs = xflat.view(complex).reshape(d_src, t_dim)
        c = build(xs)
        m0 = c.conj().T @ c - np.eye(n_src)
        value = float(np.linalg.norm(m0, "fro") ** 2)
        gc = 2 * (c @ m0)
        gxs = np.zeros_like(xs)
        for idx, (key, (src, dst)) in enumerate(zip(src_cols, maps)):
            gxs[key[-1], src] += gc[dst, idx]
        return value, gxs.reshape(-1).view(float).copy()

    def aligned_start() -> np.ndarray:
        # slot-aligned symbols: the natural candidate map, exact when feasible
        xs = np.zeros((d_src, t_dim), dtype=complex)
        for e in range(d_src):
            key = (0,) * (1 + target.n) + (e % target.coeff_dim,)
            xs[e, target.index_of[key]] = 1.0
        return xs.reshape(-1).view(float).copy()

    best = np.inf
    for seed in range(seeds):
        if seed == 0:
            x0 = aligned_start()
        else:
            rng = np.random.default_rng(seed)
            x0 = rng.normal(size=d_src * t_dim * 2) / np.sqrt(t_dim)
        out = minimize(
            objective, x0, jac=True, method="L-BFGS-B", options={"maxiter": maxiter}
        )
        xs = out.x.view(complex).reshape(d_src, t_dim)
        c = build(xs)
        residual = spectral_norm(c.conj().T @ c - np.eye(n_src))
        best = min(best, residual)
    certificate = 1.0 if n_src > t_dim else 0.0
    bound = max(best, certificate) if certificate else best
    return LowerBoundReport(
        optimized_min_residual=float(best),
        certificate_bound=certificate,
        n_source_columns=n_src,
        target_dim=t_dim,
        verdict=bound >= threshold,
        threshold=threshold,
        seeds=seeds,
    )
