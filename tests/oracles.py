"""Independent brute-force references.

The orbit and wandering references deliberately avoid the package's shift
matrices and SVD helpers: orbits are built by dict-level polynomial
multiplication and intersected with the cap box via scipy nullspaces, and
wandering spaces come from the adjoint nullspace of the restricted shift.
Used to pin derived values.  The Wold reference is the dense formula the
gather-based check replaces: every shift is a dense ``shift_matrix`` and the
reconstruction is formed over the whole Wold grade.  Its spans, null spaces
and slices are the dense SVD routines below, which are also the reference
the block kernels (``subspace.block_span``, ``subspace._slice``) are tested
against; ``subspace._wandering`` is tested against ``wandering_reference``.  The classify references form every matrix in full: the
*-closed Sylvester stack as one dense array factored by one QR, and the
doubly-commuting words, defect and commutators as dim S × dim S matrices
whose safe block is read afterwards.  The inverse-system reference is an
integer one: the Hilbert series of generic generators, and the forms that
feed it have a random coefficient on every monomial of their degree.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from polyhardy.grading import Grade, HardyVector, MultiIndex
from polyhardy.operators import CERTIFICATE_TOL, RANK_CUT, shift, shift_matrix
from polyhardy.subspace import (
    SubspaceBasis,
    embedding_positions,
    outer_degrees,
    lift_dense,
    wold_grade,
)


def dense_order(grade: Grade) -> list[tuple[int, ...]]:
    """Every monomial index ``(a, b1.., e)`` of ``grade`` in the dense order,
    lexicographic, built here so that no oracle reads the package's order."""
    axes = [range(grade.outer_cap + 1), *[range(grade.inner_cap + 1)] * grade.n]
    return list(itertools.product(*axes, range(grade.coeff_dim)))


def dense_position(grade: Grade) -> dict[tuple[int, ...], int]:
    """The place of each index in :func:`dense_order`."""
    return {t: i for i, t in enumerate(dense_order(grade))}


def orthonormal_columns(a: np.ndarray, tol: float = RANK_CUT) -> np.ndarray:
    """SVD basis of the column span with a relative singular-value cutoff."""
    if a.size == 0 or a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if len(s) == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    return u[:, s > tol * max(1.0, s[0])]


def null_columns(a: np.ndarray) -> np.ndarray:
    """SVD basis of the null space with the absolute cutoff ``RANK_CUT``."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh.conj().T[:, int((s > RANK_CUT).sum()):]


def coordinate_slice(basis: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span(basis) ∩ {x : x vanishes off ``keep``}."""
    outside = basis[~keep, :]
    if basis.shape[1] == 0 or outside.shape[0] == 0:
        return basis
    return orthonormal_columns(basis @ null_columns(outside))


def _product_support(coeffs: dict, mono: tuple[int, ...]) -> dict:
    """Multiply a coefficient dict by the monomial z^a * z1^b1...; keys are
    raw index tuples (a, b1.., e)."""
    out = {}
    for key, c in coeffs.items():
        shifted = tuple(k + m for k, m in zip(key[:-1], (*mono,))) + (key[-1],)
        out[shifted] = out.get(shifted, 0j) + c
    return out


def orbit_reference(
    generators: list[HardyVector], grade: Grade, slack: int = 2
) -> np.ndarray:
    """Dense basis (box coordinates) of the ideal slice inside the caps."""
    n = grade.n
    big_outer = grade.outer_cap + n * grade.inner_cap + slack
    big_inner = grade.inner_cap + n * grade.inner_cap + slack
    big_indices = [
        (a, *bs, e)
        for a in range(big_outer + 1)
        for bs in itertools.product(range(big_inner + 1), repeat=n)
        for e in range(grade.coeff_dim)
    ]
    big_pos = {t: i for i, t in enumerate(big_indices)}
    columns = []
    for gen in generators:
        raw = {(k.outer, *k.inner, k.coord): complex(c) for k, c in gen.coeffs.items()}
        deg_out = max(k[0] for k in raw)
        deg_in = [max(k[1 + i] for k in raw) for i in range(n)]
        monos = itertools.product(
            range(big_outer - deg_out + 1),
            *[range(big_inner - deg_in[i] + 1) for i in range(n)],
        )
        for mono in monos:
            prod = _product_support(raw, mono)
            col = np.zeros(len(big_indices), dtype=complex)
            for key, c in prod.items():
                col[big_pos[key]] = c
            columns.append(col)
    stacked = np.stack(columns, axis=1)
    inside = np.array(
        [
            t[0] <= grade.outer_cap and all(b <= grade.inner_cap for b in t[1:-1])
            for t in big_indices
        ]
    )
    outside_rows = stacked[~inside, :]
    kernel = scipy.linalg.null_space(outside_rows, rcond=1e-10)
    sliced = stacked @ kernel
    basis = scipy.linalg.orth(sliced, rcond=1e-10)
    keep = [big_pos[t] for t in dense_order(grade)]
    return basis[keep, :]


def wandering_reference(s_columns: np.ndarray, outer_shift: np.ndarray) -> np.ndarray:
    """Nullspace of the adjoint of the restricted outer shift, in ambient
    coordinates."""
    restricted = s_columns.conj().T @ outer_shift @ s_columns
    kernel = scipy.linalg.null_space(restricted.conj().T, rcond=1e-10)
    return s_columns @ kernel


def _dense_orbit_columns(gw: Grade, generators: list[HardyVector]) -> np.ndarray:
    """Monomial multiples of the generators in ``gw`` by dense shift mat-vecs."""
    shifts = [shift_matrix(gw, axis) for axis in range(gw.n + 1)]
    cols = []
    for g in generators:
        vec = lift_dense(g.grade, gw, g.to_dense()[:, None])[:, 0]
        powers = [vec]
        for _ in range(gw.outer_cap - g.outer_degree()):
            powers.append(shifts[0] @ powers[-1])
        for base in powers:
            stack = [base]
            for i, deg in enumerate(g.inner_degrees()):
                grown = []
                for w in stack:
                    grown.append(w)
                    for _ in range(gw.inner_cap - deg):
                        grown.append(shifts[1 + i] @ grown[-1])
                stack = grown
            cols.extend(stack)
    return np.stack(cols, axis=1)


def wold_residual_dense(s: SubspaceBasis) -> float:
    """``‖P_S − Σ_m M_z^m P_W M_z^{*m}‖`` compressed to the target safe band,
    with the projections formed as dense Wold-grade matrices."""
    grade = s.grade
    gb = wold_grade(grade)
    caps = gb.outer_cap
    mz = shift_matrix(gb, 0)
    sb = orthonormal_columns(_dense_orbit_columns(gb, list(s.provenance.generators)))
    shifted = orthonormal_columns(mz @ sb)
    _, sv, vh = np.linalg.svd(shifted.conj().T @ sb, full_matrices=True)
    wb = orthonormal_columns(sb @ vh.conj().T[:, int((sv > 1e-10).sum()) :])
    inner_caps_mask = np.array([all(x <= caps - 1 for x in t[:-1]) for t in dense_order(gb)])
    wc = coordinate_slice(wb, inner_caps_mask)
    reconstruction = np.zeros((gb.dim, gb.dim), dtype=complex)
    cur = wc
    for _ in range(caps + 1):
        reconstruction += cur @ cur.conj().T
        cur = mz @ cur
    defect = sb @ sb.conj().T - reconstruction
    band = embedding_positions(grade, gb)[grade.safe_mask]
    return float(np.linalg.norm(defect[np.ix_(band, band)], 2))


def wold_multiplication_reference(s: SubspaceBasis, w: SubspaceBasis, phi, axis: int):
    """``(worst, worst_super)`` of ``blh.wold_multiplication_consistency``,
    entry by entry in nested loops over the cap-exact pairs."""
    grade = s.grade
    cap, r, nc = grade.outer_cap, w.dim, w.n_certified
    degrees = outer_degrees(grade, w.columns, 1e-12)
    blocks = []
    shifted = w.columns
    for _ in range(cap + 1):
        blocks.append(shifted.conj().T @ s.columns)
        shifted = shift(grade, 0, shifted)
    pi = np.vstack(blocks)
    compressed = s.columns.conj().T @ shift(grade, 1 + axis, s.columns)
    lhs = pi @ compressed @ pi.conj().T
    worst = worst_super = 0.0
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
                    err = np.abs(block[j, l] - target[j, l])
                    if mp == m + 1:
                        worst_super = max(worst_super, err)
                    else:
                        worst = max(worst, err)
    return worst, worst_super


def sylvester_stack(phis_a, phis_b, trusted_degree: int) -> np.ndarray:
    """The *-closed Sylvester equations of ``classify.sylvester_nullspace``
    as one dense array acting on column-major vec(τ)."""
    eye_a, eye_b = np.eye(phis_a[0].shape[0]), np.eye(phis_b[0].shape[0])
    rows = []
    for pa, pb in zip(phis_a, phis_b):
        for m in range(trusted_degree + 1):
            a, b = pa.coeff(m), pb.coeff(m)
            for x, y in ((a, b), (a.conj().T, b.conj().T)):
                rows.append(np.kron(x.T, eye_b) - np.kron(eye_a, y))
    return np.vstack(rows)


def sylvester_nullspace_dense(phis_a, phis_b, trusted_degree: int):
    """The null space that ``classify.sylvester_nullspace`` solves for, cut
    at ``CERTIFICATE_TOL·max(1, s₀)``, and the stack's singular values, from
    one QR of the whole dense stack and the SVD of its square R factor."""
    stack = sylvester_stack(phis_a, phis_b, trusted_degree)
    size = stack.shape[1]
    _, r = scipy.linalg.qr(stack, mode="raw")
    _, s, vh = np.linalg.svd(r)
    k = int((s < CERTIFICATE_TOL * max(1.0, s[0])).sum())
    return vh[size - k :].conj().T, s


def doubly_commuting_dense(s: SubspaceBasis) -> tuple[float, np.ndarray]:
    """The adjoint-commutation residual and the defect's singular values of
    ``classify.doubly_commuting_classification``: every word T^k, every
    T^k T^{*k} and every commutator is a dim S × dim S matrix, and the
    leading ``s.n_certified`` rows and columns are read afterwards."""
    cols = s.columns
    ops = [cols.conj().T @ shift_matrix(s.grade, ax) @ cols for ax in range(1 + s.grade.n)]
    safe = slice(0, s.n_certified)
    adj = 0.0
    for i, vi in enumerate(ops):
        for j, vj in enumerate(ops):
            if i != j:
                comm = vi.conj().T @ vj - vj @ vi.conj().T
                adj = max(adj, float(np.linalg.norm(comm[safe, safe], 2)))
    total = np.zeros((s.dim, s.dim), dtype=complex)
    for picks in itertools.product((0, 1), repeat=len(ops)):
        word = np.eye(s.dim, dtype=complex)
        for mat, take in zip(ops, picks):
            if take:
                word = word @ mat
        total += (-1) ** sum(picks) * (word @ word.conj().T)
    return adj, np.linalg.svd(total[safe, safe], compute_uv=False)


def generic_form(grade: Grade, degree: int, rng: np.random.Generator) -> HardyVector:
    """A homogeneous form of total degree ``degree`` with a random complex
    coefficient on every monomial of that degree and every coordinate; the
    caps must hold each such monomial."""
    coeffs = {}
    for exps in itertools.product(range(degree + 1), repeat=grade.n + 1):
        if sum(exps) == degree:
            for coord in range(grade.coeff_dim):
                c = complex(rng.normal(), rng.normal())
                coeffs[MultiIndex(exps[0], exps[1:], coord)] = c
    return HardyVector(grade, coeffs)


def hilbert_coefficients(numerator: dict[int, int], variables: int, top: int) -> list[int]:
    """The coefficients of s^0 … s^top of numerator(s)/(1 − s)^variables,
    ``numerator`` mapping each power to its integer coefficient: the
    coefficient of s^t is Σ_i N_i·C(t − i + variables − 1, variables − 1)."""
    return [
        sum(
            c * math.comb(t - i + variables - 1, variables - 1)
            for i, c in numerator.items()
            if i <= t
        )
        for t in range(top + 1)
    ]


def degree_monomials(variables: int, t: int) -> list[tuple[int, ...]]:
    """The exponent tuples of total degree t in lexicographic order, built
    here so that no oracle reads the package's order."""
    return sorted(e for e in itertools.product(range(t + 1), repeat=variables) if sum(e) == t)


def backward_shift_stack(low: np.ndarray, variables: int, d: int, t: int, duals=()):
    """One degree of the inverse system laid out densely, from K_{t−1} =
    ``low`` (over P_{t−1} ⊗ E, keys by monomial, then coordinate). The
    unknowns are c = (c_0, …, c_n), c_v the coordinates of M_v^*·g in
    K_{t−1}, one block of K_{t−1}'s width each. Returns the stack, the key
    of each of its rows, and the lift c ↦ g with g[β] = (M_v K c_v)[β] for
    the first v with β_v > 0. The stack holds the equations (M_v K c_v)[β] =
    (M_w K c_w)[β] for each later w with β_w > 0, then f_jᴴ·lift for each
    dual f_j (a vector over P_t ⊗ E), whose key is its first nonzero one."""
    upper = degree_monomials(variables, t)
    lower = {e: i for i, e in enumerate(degree_monomials(variables, t - 1))}
    k = low.shape[1]

    def shifted(beta, v, e):
        below = list(beta)
        below[v] -= 1
        out = np.zeros(variables * k, dtype=complex)
        out[v * k : (v + 1) * k] = low[lower[tuple(below)] * d + e]
        return out

    lift = np.zeros((len(upper) * d, variables * k), dtype=complex)
    rows, keys = [], []
    for i, beta in enumerate(upper):
        first, *later = [v for v in range(variables) if beta[v]]
        for e in range(d):
            lift[i * d + e] = shifted(beta, first, e)
            rows += [lift[i * d + e] - shifted(beta, w, e) for w in later]
            keys += [i * d + e] * len(later)
    for f in duals:
        rows.append(np.conj(f) @ lift)
        keys.append(int(np.flatnonzero(f)[0]))
    return np.array(rows).reshape(-1, variables * k), np.array(keys, dtype=int), lift
