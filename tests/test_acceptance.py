"""Acceptance suite: one check per numbered criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines.  Tolerances are pinned here and intentionally strict.
"""
from __future__ import annotations

import numpy as np

import polyhardy as ph
from polyhardy.operators import model_tuple

from .oracles import wandering_reference


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def _trusted(grade: ph.Grade) -> int:
    return grade.outer_cap - grade.safe_margin


def test_criterion_01_reindex_round_trip():
    grade = ph.Grade(2, 4, 4, 2)
    rng = np.random.default_rng(1)
    max_coeff_residual = 0.0
    max_norm_residual = 0.0
    for _ in range(1000):
        original = {}
        for t in grade.indices:
            c = complex(rng.standard_normal() + 1j * rng.standard_normal())
            original[ph.PolydiscIndex(t[:-1], t[-1])] = c
        f = ph.reindex_to_disc(original, grade)
        back = ph.reindex_to_polydisc(f)
        assert back.keys() == original.keys()
        max_coeff_residual = max(
            max_coeff_residual, max(abs(back[k] - original[k]) for k in original)
        )
        side_norm = float(np.sqrt(sum(abs(c) ** 2 for c in original.values())))
        max_norm_residual = max(max_norm_residual, abs(f.norm() - side_norm))
    ok = max_coeff_residual == 0.0 and max_norm_residual == 0.0
    _verdict(
        1,
        ok,
        f"1000 round trips exact: coeff residual {max_coeff_residual}, "
        f"norm residual {max_norm_residual}",
    )


def test_criterion_02_intertwining_isometry_commutation(corpus_artifacts):
    worst_intertwine = 0.0
    worst_iso = 0.0
    worst_commute = 0.0
    ok = True
    for art in corpus_artifacts.values():
        grade = art["grade"]
        nc = art["w"].n_certified
        for axis in range(grade.n):
            rep = ph.verify_intertwining(
                ph.kappa_polynomial(grade, axis),
                art["theta"],
                art["phis"][axis],
                _trusted(grade),
                n_certified=nc,
                tolerance=1e-10,
            )
            worst_intertwine = max(worst_intertwine, rep.max_residual)
            ok = ok and rep.verdict
        iso = ph.is_isometric_multiplier(art["theta"], nc, tolerance=1e-10)
        worst_iso = max(worst_iso, iso.max_residual)
        ok = ok and iso.verdict
        for i in range(grade.n):
            for j in range(i + 1, grade.n):
                com = ph.multiplier_commutation(
                    art["phis"][i],
                    art["phis"][j],
                    _trusted(grade),
                    n_certified=nc,
                    tolerance=1e-10,
                )
                worst_commute = max(worst_commute, com.max_residual)
                ok = ok and com.verdict
    ok = ok and worst_intertwine < 1e-10 and worst_iso < 1e-10
    _verdict(
        2,
        ok,
        f"26 scenarios: intertwining {worst_intertwine:.2e}, "
        f"isometry {worst_iso:.2e}, pairwise commutation {worst_commute:.2e}",
    )


def test_criterion_03_two_extraction_routes_agree(corpus_artifacts):
    worst = 0.0
    for art in corpus_artifacts.values():
        grade = art["grade"]
        nc = art["w"].n_certified
        for axis in range(grade.n):
            direct = art["phis"][axis]
            via = ph.extract_phi_via_theta(art["s"], art["w"], axis, force=True)
            for cd, ci in zip(direct.coeffs, via.coeffs):
                worst = max(worst, float(abs(cd[:nc, :nc] - ci[:nc, :nc]).max()))
    ok = worst < 1e-12
    _verdict(3, ok, f"max coefficient gap between routes {worst:.2e} < 1e-12")


def test_criterion_04_rebuild_from_symbol(corpus_artifacts):
    worst_angle = 0.0
    worst_outer = 0.0
    worst_joint = 0.0
    incomplete = set()
    ok = True
    for label, art in corpus_artifacts.items():
        grade = art["grade"]
        rebuilt = ph.build_from_theta(art["theta"], grade)
        angle = ph.max_principal_angle_sine(rebuilt, art["s"])
        worst_angle = max(worst_angle, angle)
        outer = ph.check_invariant(rebuilt, [0], tolerance=1e-10)
        worst_outer = max(worst_outer, outer.residuals[0])
        ok = ok and outer.verdict
        if rebuilt.dim == art["s"].dim:
            joint = ph.check_invariant(rebuilt, range(grade.n + 1), tolerance=1e-10)
            worst_joint = max(worst_joint, max(joint.residuals))
            ok = ok and joint.verdict
        else:
            incomplete.add(label)
    ok = ok and worst_angle < 1e-8
    ok = ok and incomplete == {"z2-minus-zz1", "pair-n2"}
    _verdict(
        4,
        ok,
        f"angles {worst_angle:.2e} < 1e-8; outer invariance {worst_outer:.2e}; "
        f"joint invariance {worst_joint:.2e} on complete rebuilds; "
        f"incomplete = {sorted(incomplete)}",
    )


def test_criterion_05_wold_reconstruction(corpus_artifacts):
    worst = 0.0
    ok = True
    for art in corpus_artifacts.values():
        rep = ph.wold_reconstruction(art["s"], tolerance=1e-10)
        worst = max(worst, rep.residual)
        ok = ok and rep.verdict
    ok = ok and worst < 1e-10
    _verdict(5, ok, f"26 scenarios: safe-band projection gap {worst:.2e} < 1e-10")


def test_criterion_06_model_defect_rank():
    results = []
    min_gap = np.inf
    ok = True
    cases = [ph.Grade(1, 5, 5, d) for d in (1, 2, 3)] + [ph.Grade(2, 4, 4, 2)]
    for grade in cases:
        rep = ph.defect_rank(model_tuple(grade), tolerance=1e-8)
        sv = np.asarray(rep.singular_values)
        tail = sv[rep.rank] if rep.rank < sv.size else 0.0
        gap = sv[rep.rank - 1] / max(tail, 1e-300)
        min_gap = min(min_gap, gap)
        results.append((grade.coeff_dim, rep.rank))
        ok = ok and rep.rank == grade.coeff_dim
    ok = ok and min_gap >= 1e6
    _verdict(
        6,
        ok,
        f"defect ranks {results} match coefficient dims; "
        f"smallest spectral gap {min_gap:.1e} ≥ 1e6",
    )


def test_criterion_07_doubly_commuting_split(corpus_artifacts):
    reports = {
        label: ph.doubly_commuting_classification(
            art["s"], art["phis"], art["w"].n_certified
        )
        for label, art in corpus_artifacts.items()
        if label in {"one", "z1", "z-minus-z1"}
    }
    ok = True
    for label in ("one", "z1"):
        rep = reports[label]
        ok = ok and rep.doubly_commuting and rep.phis_constant
        ok = ok and rep.phi_nonconstancy < 1e-10 and rep.equivalence_holds
    moved = reports["z-minus-z1"]
    ok = ok and not moved.doubly_commuting and not moved.phis_constant
    ok = ok and moved.phi_nonconstancy > 1e-3
    ok = ok and abs(moved.phi_nonconstancy - 0.5) < 1e-10
    ok = ok and moved.equivalence_holds
    _verdict(
        7,
        ok,
        "full space and slice doubly commuting with constant symbols "
        f"(< 1e-10); moved orbit nonconstancy {moved.phi_nonconstancy:.3f} > 1e-3",
    )


def test_criterion_08_basis_order_independence(corpus_artifacts):
    rng = np.random.default_rng(8)
    worst_unitarity = 0.0
    worst_factor = 0.0
    ok = True
    for label in ("z-minus-z1", "pair-n2"):
        art = corpus_artifacts[label]
        w = art["w"]
        nc = w.n_certified
        for _ in range(5):
            perm = list(rng.permutation(nc)) + list(range(nc, w.dim))
            shuffled = ph.SubspaceBasis(
                w.grade, w.columns[:, perm], ph.Provenance("wandering"), n_certified=nc
            )
            theta_tilde = ph.extract_theta(art["s"], shuffled, force=True)
            cert = ph.uniqueness_tau(
                art["theta"], theta_tilde, n_certified=nc, tolerance=1e-10
            )
            worst_unitarity = max(worst_unitarity, cert.unitarity_residual)
            worst_factor = max(worst_factor, cert.intertwining_residual)
            ok = ok and cert.verdict == "coincide"
    ok = ok and worst_unitarity < 1e-10 and worst_factor < 1e-10
    _verdict(
        8,
        ok,
        f"10 reorderings: τ unitarity {worst_unitarity:.2e}, "
        f"coefficient match {worst_factor:.2e} < 1e-10",
    )


def test_criterion_09_nested_factorization(corpus_artifacts):
    inner = corpus_artifacts["z2-minus-zz1"]
    outer = corpus_artifacts["z-minus-z1"]
    nc = inner["w"].n_certified
    cert = ph.nested_factor(
        inner["s"], inner["theta"], outer["s"], outer["theta"], 4, n_certified=nc
    )
    mm = ph.module_map_check(
        cert.psi, inner["phis"], outer["phis"], 4, n_certified=nc
    )
    control = ph.nested_factor(
        corpus_artifacts["z1"]["s"],
        corpus_artifacts["z1"]["theta"],
        corpus_artifacts["z"]["s"],
        corpus_artifacts["z"]["theta"],
        4,
        n_certified=corpus_artifacts["z1"]["w"].n_certified,
    )
    ok = (
        cert.verdict == "nested"
        and cert.containment_residual < 1e-8
        and cert.factorization_residual < 1e-8
        and cert.isometry_residual < 1e-8
        and mm.verdict
        and control.verdict == "not nested"
        and control.containment_residual > 0.9
    )
    _verdict(
        9,
        ok,
        f"nested pair factored (residuals ≤ {max(cert.factorization_residual, cert.isometry_residual):.2e}, "
        f"intertwines); control containment {control.containment_residual:.2f} → not nested",
    )


def test_criterion_10_coincidence_certificates(corpus_artifacts):
    ok = True
    worst = 0.0
    for label in ("z-minus-z1", "random-03"):
        art = corpus_artifacts[label]
        nc = art["w"].n_certified
        cert_phis = [
            ph.MatrixPolynomial(tuple(c[:nc, :nc] for c in phi.coeffs))
            for phi in art["phis"]
        ]
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(nc, nc)) + 1j * rng.normal(size=(nc, nc)))
        conjugated = [
            ph.MatrixPolynomial(tuple(q.conj().T @ c @ q for c in p.coeffs))
            for p in cert_phis
        ]
        cert = ph.coincide(cert_phis, conjugated, _trusted(art["grade"]))
        ok = ok and cert.verdict == "coincide"
        ok = ok and cert.unitarity_residual < 1e-8
        ok = ok and cert.intertwining_residual < 1e-8
        worst = max(worst, cert.unitarity_residual, cert.intertwining_residual)
    a = corpus_artifacts["z-minus-z1"]
    b = corpus_artifacts["one"]
    mismatch = ph.coincide(
        [
            ph.MatrixPolynomial(
                tuple(c[: a["w"].n_certified, : a["w"].n_certified] for c in p.coeffs)
            )
            for p in a["phis"]
        ],
        [
            ph.MatrixPolynomial(
                tuple(c[: b["w"].n_certified, : b["w"].n_certified] for c in p.coeffs)
            )
            for p in b["phis"]
        ],
        4,
    )
    ok = ok and mismatch.verdict == "distinct"
    _verdict(
        10,
        ok,
        f"conjugated tuples certified equivalent (residuals {worst:.2e} < 1e-8); "
        "mismatched multiplicities rejected",
    )


def test_criterion_11_capacity_bounds(corpus_artifacts):
    ok = True
    # inclusion maps between coefficient spaces of increasing dimension
    for d_src, d_tgt in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        target = ph.Grade(1, 4, 4, d_tgt)
        vectors = []
        for e in range(d_src):
            v = np.zeros(target.dim)
            v[target.index_of[(0, 0, e)]] = 1.0
            vectors.append(v)
        rep = ph.bessel_diagnostics(target, vectors, float(d_tgt), tolerance=1e-10)
        sums = rep.partial_sums
        monotone = all(sums[i + 1] >= sums[i] - 1e-15 for i in range(len(sums) - 1))
        ok = ok and rep.verdict and monotone and abs(sums[-1] - d_src) < 1e-12
    # wandering images of every corpus symbol against the slot capacity
    worst_excess = -np.inf
    for art in corpus_artifacts.values():
        grade = art["grade"]
        nc = art["w"].n_certified
        vectors = [art["w"].columns[:, j] for j in range(nc)]
        rep = ph.bessel_diagnostics(
            grade, vectors, float(grade.inner_slot_dim), tolerance=1e-10
        )
        sums = rep.partial_sums
        monotone = all(sums[i + 1] >= sums[i] - 1e-15 for i in range(len(sums) - 1))
        worst_excess = max(worst_excess, max(sums) - grade.inner_slot_dim)
        ok = ok and rep.verdict and monotone
    # no isometric module map can shrink the coefficient dimension
    squeeze = ph.isometric_module_map_lower_bound(
        ph.Grade(1, 5, 5, 3), ph.Grade(1, 5, 5, 2)
    )
    ok = ok and squeeze.verdict
    ok = ok and squeeze.certificate_bound == 1.0
    ok = ok and squeeze.optimized_min_residual >= 0.3
    _verdict(
        11,
        ok,
        f"partial sums capped (max excess {worst_excess:.2e} ≤ 0 + 1e-10); "
        f"3→2 squeeze obstructed: optimized residual "
        f"{squeeze.optimized_min_residual:.2f} ≥ 0.3, counting bound "
        f"{squeeze.certificate_bound}",
    )


def test_criterion_12_wandering_matches_bruteforce():
    grade = ph.Grade(1, 4, 4, 1)
    generators = [ph.parse_polynomial("z - z1", grade)]
    s = ph.orbit_span(generators, grade, 2)
    w = ph.wandering_subspace(s)
    mz = ph.shift_matrix(grade, 0).entries
    oracle = wandering_reference(s.columns, mz)
    angle = (
        ph.max_principal_angle_sine(w.columns, oracle)
        if oracle.shape[1]
        else np.inf
    )
    ok = w.dim == oracle.shape[1] and angle < 1e-10
    _verdict(
        12,
        ok,
        f"dimension {w.dim} == oracle {oracle.shape[1]}; basis angle {angle:.2e} < 1e-10",
    )
