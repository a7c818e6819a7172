"""The graded path of homogeneous generators: their inverse system.

For homogeneous generators [f] = ⊕_t I_t, with I_t the span of the z^α·f_j
of total degree t in P_t ⊗ E, so [f] ∩ caps = ⊕_t (I_t ∩ box_t) exactly,
with no enlarged grade. :func:`inverse_system` computes K_t = I_t^⊥ degree
by degree (Macaulay's inverse system), solved on the pieces of the finest
grading in which every generator is homogeneous (:func:`_pieces`), the
pieces of one shape by one stacked SVD and one stacked QR, and stopped at
the first empty K_t. :func:`_exact_dim` reads the exact dimension of [f] ∩
caps off it, and :func:`_graded_wold` the Wold residual on the safe band,
degree by degree. :mod:`polyhardy.subspace` keeps the system with an
orbit's provenance and reads both off it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .grading import Grade, HardyVector, MultiIndex
from .operators import RANK_CUT, _components, _grouped, spectral_norm


def _total_degree(g: HardyVector) -> int | None:
    """The total degree a + Σb that every monomial of ``g`` has, or None if
    ``g`` is not homogeneous."""
    degrees = {k.outer + sum(k.inner) for k in g.coeffs}
    return degrees.pop() if len(degrees) == 1 else None


def homogeneous(generators: Sequence[HardyVector]) -> bool:
    """Whether the generators, zero ones dropped as
    :func:`~polyhardy.subspace.orbit_span` drops them, are at least one and
    each homogeneous, so that the graded path (:func:`inverse_system`)
    serves them."""
    nonzero = [g for g in generators if g.coeffs]
    return bool(nonzero) and all(_total_degree(g) is not None for g in nonzero)


@lru_cache(maxsize=None)
def _degree_monomials(count: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents of the degree-t monomials in ``count`` variables in
    lexicographic order, and their keys, each exponent tuple read as the
    digits of a base-(t+1) number, ascending with them. Each tuple is the
    gaps between the bars of a stars-and-bars word, and
    ``itertools.combinations`` gives the bar positions in that order."""
    bars = np.array(list(itertools.combinations(range(t + count - 1), count - 1)), dtype=int)
    ends = np.full((len(bars), 1), t + count - 1)
    table = np.diff(np.hstack([-np.ones_like(ends), bars, ends]), axis=1) - 1
    keys = table @ (t + 1) ** np.arange(count - 1, -1, -1)
    table.flags.writeable = keys.flags.writeable = False
    return table, keys


def _degree_index(t: int, exponents: np.ndarray) -> np.ndarray:
    """Places of the degree-t monomials ``exponents`` (last axis: one
    exponent per variable) in :func:`_degree_monomials`."""
    count = exponents.shape[-1]
    keys = exponents @ (t + 1) ** np.arange(count - 1, -1, -1)
    return np.searchsorted(_degree_monomials(count, t)[1], keys)


def _graded_key(exponents: np.ndarray, top: int) -> np.ndarray:
    """Each monomial's total degree, then its exponents, read as the digits
    of a base-(top+1) number: ascending by degree, then lexicographically."""
    digits = np.concatenate([exponents.sum(axis=-1, keepdims=True), exponents], axis=-1)
    return digits @ (top + 1) ** np.arange(digits.shape[-1] - 1, -1, -1)


@lru_cache(maxsize=None)
def _graded_monomials(count: int, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monomials of degree ≤ ``top`` in ``count`` variables, each degree
    in the order of :func:`_degree_monomials`; the place of each degree's
    first monomial, t = 0 … top + 1; and their keys (:func:`_graded_key`),
    ascending with them."""
    tables = [_degree_monomials(count, t)[0] for t in range(top + 1)]
    table = np.vstack(tables)
    first = np.cumsum([0] + [len(x) for x in tables])
    keys = _graded_key(table, top)
    table.flags.writeable = first.flags.writeable = keys.flags.writeable = False
    return table, first, keys


@lru_cache(maxsize=None)
def _graded_positions(grade: Grade) -> np.ndarray:
    """The key of each position of ``grade`` in ⊕_t P_t ⊗ E, t = 0 … D +
    nN: the monomials by degree (:func:`_graded_monomials`), then the
    coordinate."""
    top = grade.outer_cap + grade.n * grade.inner_cap
    exponents = grade.exponents
    keys = _graded_key(exponents[:, :-1], top)
    place = np.searchsorted(_graded_monomials(grade.n + 1, top)[2], keys)
    out = place * grade.coeff_dim + exponents[:, -1]
    out.flags.writeable = False
    return out


def _support_table(support: Sequence[MultiIndex]) -> tuple[np.ndarray, np.ndarray]:
    """The exponents (z first) and the coordinate of each key of a
    generator's support."""
    return np.array([[k.outer, *k.inner] for k in support]), np.array([k.coord for k in support])


def _pieces(supports, count: int, d: int, top: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The piece of each key (monomial ⊗ coordinate) of degree ≤ ``top``,
    keys laid out as by :func:`_graded_positions`, for homogeneous
    generators with the key sets ``supports``; and the keys of each
    support. Two keys share a piece when one multiple z^α·f_j holds both,
    so a piece lies in one degree, and a key that no multiple holds is a
    piece of its own. Pieces are numbered by their first key, so each
    degree's pieces are one range. Each I_t is the direct sum of the spans
    of the multiples in its pieces, so every degree of the inverse system is
    block diagonal by them."""
    table, first, keys = _graded_monomials(count, top)
    rows, cols, multiples = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)], 0
    for support in supports:
        exponents, coords = _support_table(support)
        alphas = table[: first[top - exponents[0].sum() + 1]]
        held = np.searchsorted(keys, _graded_key(alphas[:, None] + exponents, top)) * d + coords
        rows.append(held.ravel())
        cols.append(np.repeat(np.arange(multiples, multiples + len(alphas)), len(coords)))
        multiples += len(alphas)
    size = len(table) * d
    labels = _components(np.concatenate(rows), np.concatenate(cols), size, multiples)[1][:size]
    # α = 0 comes first: each generator's own keys
    return labels, [held[: len(support)] for held, support in zip(rows[1:], supports)]


def _shape_groups(live: np.ndarray, size: np.ndarray, *shape: np.ndarray):
    """The pieces ``live`` grouped by shape, ``shape[k][p]`` the k-th size
    of piece p, each group ascending; each piece's first place in one flat
    buffer that lays the groups out one after another, ``size[p]`` places
    per piece, so that each group is one stacked block; and the buffer's
    length."""
    if live.size == 1:
        return [live], np.zeros(size.size, dtype=int), int(size[live[0]])
    groups: dict[tuple, list[int]] = {}
    for p, *key in zip(live.tolist(), *(s[live].tolist() for s in shape)):
        groups.setdefault(tuple(key), []).append(p)
    ids = [np.array(p) for p in groups.values()]
    order = np.concatenate([np.zeros(0, dtype=int), *ids])
    end = np.cumsum(size[order])
    base = np.zeros(size.size, dtype=int)
    base[order] = end - size[order]
    return ids, base, int(end[-1]) if end.size else 0


def _scatter(length: int, place: np.ndarray, rows: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """A flat array of ``length`` that sums, for each i, the first
    ``widths[i]`` entries of ``rows[i]`` into the places from ``place[i]``
    on."""
    cols = np.arange(rows.shape[1])
    keep = cols < widths[:, None]
    out = np.zeros(length, dtype=complex)
    np.add.at(out, (place[:, None] + cols)[keep], rows[keep])
    return out


class _Shifts(NamedTuple):
    """The backward shifts that link the keys of degree t to those of
    degree t − 1, piece by piece (:func:`_pieces`), for every t ≤ D + nN at
    once: keys by degree (degree t from ``key_at[t]``), pieces by first key
    (``piece_at``), pairs by piece (``pair_at``), terms by degree
    (``term_at``).

    ``labels`` is the piece of each key, ``order``, ``start`` and
    ``height`` lay out each piece's keys (:func:`_grouped`), and ``rows``
    counts the rows of each piece's stack. The unknowns of a piece p are
    its pairs (v, q): q a piece of degree t − 1 with q + e_v ⊆ p, whose
    coordinates c_{v,q} in K_{t−1,q} give M_v^*·g on q. Each pair's
    ``pair_piece`` p and ``pair_q`` q are numbered within their degrees. At
    degree 0 each key of E is a pair of its own, read off a unit.

    Each term puts ``term_weight`` times row ``term_src`` of K_{t−1} in the
    columns of pair ``term_pair`` (both numbered within their degrees) of
    row ``term_row`` of its piece's matrix [equations; duals; lift]. Each
    key β is read off its first variable v with β_v > 0 (its lead), each
    later w with β_w > 0 gives an equation (the two backward shifts agree on
    β), and each generator f_j of the piece a row f_jᴴ·lift."""

    key_at: np.ndarray
    piece_at: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    start: np.ndarray
    height: np.ndarray
    rows: np.ndarray
    pair_at: np.ndarray
    pair_piece: np.ndarray
    pair_q: np.ndarray
    term_at: np.ndarray
    term_pair: np.ndarray
    term_src: np.ndarray
    term_row: np.ndarray
    term_weight: np.ndarray


def _shifts(generators: Sequence[HardyVector], grade: Grade) -> _Shifts:
    """The :class:`_Shifts` of homogeneous generators at ``grade``."""
    count, d = grade.n + 1, grade.coeff_dim
    top = grade.outer_cap + grade.n * grade.inner_cap
    table, first, monomial_keys = _graded_monomials(count, top)
    supports = [tuple(g.coeffs) for g in generators]
    labels, dual_keys = _pieces(supports, count, d, top)
    pieces = int(labels.max()) + 1
    key_at = first * d
    degree = np.repeat(np.arange(top + 1), np.diff(key_at))
    order, start, height, place = _grouped(labels, pieces)
    piece_at = np.searchsorted(degree[order[start]], np.arange(top + 2))
    # each key β and each v with β_v > 0, the key β − e_v, and whether v
    # is β's first positive variable; degree 0 reads coordinate c off unit c
    positive = table > 0
    monomial, var = np.nonzero(positive)
    below = np.searchsorted(monomial_keys, _graded_key(table[monomial] - np.eye(count, dtype=int)[var], top))
    lead = var == np.argmax(positive, axis=1)[monomial]
    coords = np.arange(d)
    key = np.concatenate([coords, (monomial[:, None] * d + coords).ravel()])
    src = np.concatenate([coords, (below[:, None] * d + coords).ravel()])
    var = np.concatenate([np.zeros(d, dtype=int), np.repeat(var, d)])
    lead = np.concatenate([np.ones(d, dtype=bool), np.repeat(lead, d)])
    low = degree[key] - 1
    q = np.where(low < 0, src, labels[src] - piece_at[low])
    src = np.where(low < 0, src, src - key_at[low])
    span = int(max(d, np.diff(piece_at).max()))
    code, pair = np.unique((labels[key] * count + var) * span + q, return_inverse=True)
    pair_piece = code // (count * span)
    pair_at = np.searchsorted(pair_piece, piece_at)
    pair -= pair_at[degree[key]]
    # the equations: every incidence that does not lead
    lead_of = np.empty(labels.size, dtype=int)
    lead_of[key[lead]] = np.flatnonzero(lead)
    eq = np.flatnonzero(~lead)
    *_, m, row = _grouped(labels[key[eq]], pieces)
    # the duals: one row each after the equations of the generator's piece
    weights = [np.conj(list(g.coeffs.values())) for g in generators]
    dual_piece = labels[[keys[0] for keys in dual_keys]]
    *_, r, dual_row = _grouped(dual_piece, pieces)
    dual_rows = np.repeat(m[dual_piece] + dual_row, [keys.size for keys in dual_keys])
    inc = np.concatenate([lead_of[key[eq]], eq, lead_of[np.concatenate(dual_keys)], lead_of])
    rows = np.concatenate([row, row, dual_rows, (m + r)[labels] + place])
    weight = np.concatenate([np.ones(eq.size), -np.ones(eq.size), *weights, np.ones(labels.size)])
    by_degree = np.argsort(degree[key[inc]], kind="stable")
    inc = inc[by_degree]
    return _Shifts(
        key_at, piece_at, labels, order, start, height, m + r,
        pair_at, pair_piece - piece_at[degree[order[start[pair_piece]]]], code % span,
        np.searchsorted(degree[key[inc]], np.arange(top + 2)),
        pair[inc], src[inc], rows[by_degree], weight[by_degree],
    )


@dataclass(frozen=True)
class PieceBasis:
    """K_t, an orthonormal basis over the keys of P_t ⊗ E that is block
    diagonal by the pieces of degree t (:func:`_pieces`): ``pieces`` holds
    each key's piece, numbered from 0, ``widths`` counts each piece's
    columns, and row β of ``packed`` holds row β of its piece's block, zero
    past the piece's width. Columns are numbered piece by piece."""

    packed: np.ndarray
    widths: np.ndarray
    pieces: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.packed.shape[0], int(self.widths.sum())

    def toarray(self) -> np.ndarray:
        start = np.cumsum(self.widths) - self.widths
        rows, cols = np.nonzero(np.arange(self.packed.shape[1]) < self.widths[self.pieces][:, None])
        out = np.zeros(self.shape, dtype=complex)
        out[rows, start[self.pieces[rows]] + cols] = self.packed[rows, cols]
        return out


def _solve_degree(sy: _Shifts, t: int, low: np.ndarray, low_widths: np.ndarray):
    """K_t from K_{t−1}, packed as ``low`` with ``low_widths`` (a unit
    column per key of E at t = 0): the packed K_t and its widths.

    A piece's matrix [equations; duals; lift] (:class:`_Shifts`) has as
    many columns as its pairs' widths add up to, the pairs side by side.
    The pieces whose matrices have one shape are solved together: their
    stacks [equations; duals] by one stacked SVD cut at
    ``RANK_CUT·max(1, s₀)``, s₀ over all the degree's pieces, and the lifts
    of their null vectors by one stacked QR. The lift is injective on the
    null space, since each c_{v,q} is read back off g as M_v^*·g, and well
    conditioned (‖c‖² ≤ (n+1)·‖g‖²)."""
    pairs, pieces = slice(sy.pair_at[t], sy.pair_at[t + 1]), slice(sy.piece_at[t], sy.piece_at[t + 1])
    width, piece = low_widths[sy.pair_q[pairs]], sy.pair_piece[pairs]
    a = np.bincount(piece, width, pieces.stop - pieces.start).astype(int)
    first = np.cumsum(width) - width - (np.cumsum(a) - a)[piece]
    e, height = sy.rows[pieces], sy.height[pieces]
    groups, base, length = _shape_groups(np.flatnonzero(a), (e + height) * a, e, height, a)
    terms = slice(sy.term_at[t], sy.term_at[t + 1])
    pair = sy.term_pair[terms]
    p = piece[pair]
    place = base[p] + sy.term_row[terms] * a[p] + first[pair]
    flat = _scatter(length, place, low[sy.term_src[terms]] * sy.term_weight[terms, None], width[pair])
    solved = []
    for ids in groups:
        g, rows, h, w = ids.size, int(e[ids[0]]), int(height[ids[0]]), int(a[ids[0]])
        block = flat[base[ids[0]] :][: g * (rows + h) * w].reshape(g, rows + h, w)
        s, vh = np.linalg.svd(block[:, :rows], full_matrices=rows < w)[1:] if rows else (np.zeros((g, 0)), None)
        solved.append((ids, block[:, rows:], s, vh))
    cut = RANK_CUT * max([1.0, *(s.max(initial=0.0) for _, _, s, _ in solved)])
    widths, bases = np.zeros(a.size, dtype=int), []
    for ids, lift, s, vh in solved:
        null = lift.shape[2] - (s > cut).sum(axis=1)
        for k in sorted(set(null.tolist()) - {0}):
            at = null == k
            w = lift[at] if vh is None else lift[at] @ vh[at, -k:].conj().transpose(0, 2, 1)
            widths[ids[at]] = k
            bases.append((ids[at] + pieces.start, np.linalg.qr(w)[0]))
    packed = np.zeros((int(sy.key_at[t + 1] - sy.key_at[t]), widths.max(initial=0)), dtype=complex)
    for ids, u in bases:
        packed[sy.order[sy.start[ids, None] + np.arange(u.shape[1])] - sy.key_at[t], : u.shape[2]] = u
    return packed, widths


def inverse_system(generators: Sequence[HardyVector], grade: Grade) -> tuple[PieceBasis, ...]:
    """Macaulay's inverse system of homogeneous generators: for t = 0 … D +
    nN, an orthonormal basis K_t of I_t^⊥ in P_t ⊗ E, where I_t is the span
    of the z^α·f_j of total degree t. So [f] ∩ caps is ⊕_t (I_t ∩ box_t),
    exactly. P_t ⊗ E is laid out by monomial (:func:`_degree_monomials`),
    then coordinate.

    g lies in K_t if and only if M_v^*·g lies in K_{t−1} for every variable
    v and g ⊥ every generator of degree t. So the unknowns are the
    coordinates c_v of M_v^*·g = K_{t−1}·c_v, and K_t is the lift of the
    null space of the equations that the backward shifts agree and the rows
    f_jᴴ·lift, solved piece by piece (:func:`_shifts`,
    :func:`_solve_degree`). Once K_t is empty, I_t is all of P_t ⊗ E, so
    every later I is everything and every later K is returned empty, with
    no solve."""
    sy = _shifts(generators, grade)
    d = grade.coeff_dim
    # a unit column per key of E, which is K_0 if no generator has degree 0
    low, low_widths = np.ones((d, 1), dtype=complex), np.ones(d, dtype=int)
    system = []
    for t in range(sy.key_at.size - 1):
        pieces = sy.labels[sy.key_at[t] : sy.key_at[t + 1]] - sy.piece_at[t]
        if not low.shape[1]:
            low = np.zeros((pieces.size, 0), dtype=complex)
            low_widths = np.zeros(int(sy.piece_at[t + 1] - sy.piece_at[t]), dtype=int)
        elif t or sy.rows[: sy.piece_at[1]].any():
            low, low_widths = _solve_degree(sy, t, low, low_widths)
        system.append(PieceBasis(low, low_widths, pieces))
    return tuple(system)


def _exact_dim(grade: Grade, system: Sequence[PieceBasis]) -> int:
    """dim([f] ∩ caps) from the inverse system: the caps' dimension less
    Σ_t rank K_t[caps rows], each by one SVD. K_t is block diagonal by the
    pieces, so that rank is the sum of its pieces'."""
    caps = np.zeros(sum(k.packed.shape[0] for k in system), dtype=bool)
    caps[_graded_positions(grade)] = True
    rank, at = 0, 0
    for k in system:
        if k.packed.shape[1]:
            block = k.toarray()[caps[at : at + k.packed.shape[0]]]
            rank += int((np.linalg.svd(block, compute_uv=False) > RANK_CUT).sum())
        at += k.packed.shape[0]
    return grade.dim - rank


def _complement_wandering(
    k: np.ndarray, c: np.ndarray, rows: np.ndarray | slice = slice(None)
) -> np.ndarray:
    """(C·null(KᴴC))[rows], for K an orthonormal basis of S^⊥ and C one of
    (z·S)^⊥ over the same rows: C·null(KᴴC) is the orthonormal basis of
    S ⊖ z·S = S ∩ (z·S)^⊥ there, and only its ``rows`` are formed. The
    overlap's singular values are at most 1 and are cut at ``RANK_CUT``;
    with no K, C is kept whole."""
    if not k.shape[1] or not c.shape[1]:
        return c[rows]
    overlap = k.conj().T @ c
    s, vh = np.linalg.svd(overlap, full_matrices=overlap.shape[0] < overlap.shape[1])[1:]
    return c[rows] @ vh[(s > RANK_CUT).sum() :].conj().T


def _graded_wold(band: Grade, system: Sequence[PieceBasis]) -> tuple[float, int]:
    """The Wold residual on the safe band E, the grade ``band``, read off the
    inverse system, and the number of degree-space positions of the band's
    degrees.

    P_S on E is I − ⊕_t K_tK_tᴴ. With nothing truncated, the degree-t part
    of W = S ⊖ zS is W_t = C_t·null(K_tᴴC_t) (:func:`_complement_wandering`)
    for the orthonormal C_t = [e_β : β_0 = 0 | M_z·K_{t−1}], the complement
    of z·I_{t−1}. The keys with β_0 = 0 come first in each degree and the
    others follow in the order of the keys β − e_0 of degree t − 1
    (:func:`_degree_monomials`), so C_t is the block diagonal of I and
    K_{t−1}. K_t and C_t are block diagonal by the pieces, so the overlap's
    SVD is the pieces' SVDs together.

    The residual is that of P_S[E] − KKᴴ with K the outer powers [M_z^m
    W]_m on E, as on the orbit path. Every degree is one diagonal block of
    it, so its 2-norm is the largest block's; the degree-t block is I −
    K_tK_tᴴ − S_t on E, S_t = Σ_m M_z^m·W_{t−m}W_{t−m}ᴴ·M_z^{*m}, carried
    as S_t = W_tW_tᴴ + M_z·S_{t−1}·M_z^*: E is closed under lowering the
    outer degree, so S_t on E needs only S_{t−1} on E, and M_z moves key i
    of degree t − 1 to key i + u of degree t, u the number of keys with
    β_0 = 0. Once K_{t−1} is empty, K_t is, C_t holds only the e_β and the
    degree-t block is 0 ⊕ a principal submatrix of the degree-(t−1) block,
    no larger in norm, so the degrees from t on are not read."""
    top = band.outer_cap + band.n * band.inner_cap
    on_band = np.sort(_graded_positions(band))
    residual, s, below, at = 0.0, np.zeros((0, 0)), np.zeros(0, dtype=int), 0
    low = np.zeros((0, 0), dtype=complex)
    for t in range(top + 1):
        if t and not low.shape[1]:
            break
        k = system[t].toarray()
        size, units = k.shape[0], k.shape[0] - low.shape[0]
        c = np.zeros((size, units + low.shape[1]), dtype=complex)
        c[:units, :units] = np.eye(units)
        c[units:, units:] = low
        ends = np.searchsorted(on_band, [at, at + size])
        here = on_band[ends[0] : ends[1]] - at
        w = _complement_wandering(k, c, here)
        kb = k[here]
        s_t = w @ w.conj().T
        place = np.full(size, -1)
        place[here] = np.arange(here.size)
        raised = place[below + units]
        keep = np.flatnonzero(raised >= 0)
        s_t[raised[keep, None], raised[keep]] += s[keep[:, None], keep]
        residual = max(residual, spectral_norm(np.eye(here.size) - kb @ kb.conj().T - s_t))
        s, below, low, at = s_t, here, k, at + size
    return residual, sum(k.packed.shape[0] for k in system[: top + 1])
