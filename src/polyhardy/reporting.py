"""Deterministic JSON encoding for reports.

Complex scalars become [re, im] pairs, dataclasses become plain dicts
(without the fields whose metadata sets ``encode`` to false), and the final
document is serialized with sorted keys. A matrix (each Theta and Phi
coefficient, compare's tau) is ``{"shape", "index", "re", "im"}``: the
ascending row-major flat positions of its entries that are not exactly zero
and their real and imaginary parts; every other entry is an exact zero.

What is byte-stable, and where:

- The full report is byte-identical between runs in one process and one
  BLAS configuration, once ``timing`` is dropped (``strip_timing``).
- The stable part (``stable_part``) also drops, at any depth, the keys in
  ``ROUND_OFF_KEYS``: residuals of identities that hold exactly in exact
  arithmetic, and ``defect_gap``, a ratio over a round-off singular value.
  Their digits are round-off, and a different BLAS thread split reorders the
  floating-point work behind them. Dims, flags, verdicts, tolerances, caps
  and every symbol coefficient stay. For the named n=1 scenarios,
  ``full-rank2`` included, and for ``pair-n2`` the stable part is identical
  at 1 and 2 OpenBLAS threads: Theta and Phi are products of the wandering
  basis of ``subspace.canonical_basis`` and the [safe | rest] orbit basis of
  ``subspace.split_basis``, whose entries off their pattern blocks are exact
  zeros.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np


def encode(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            return [encode(x) for x in obj.tolist()]
        if obj.ndim == 2:
            flat = obj.ravel()
            index = np.flatnonzero(flat)
            return {
                "shape": [int(obj.shape[0]), int(obj.shape[1])],
                "index": index.tolist(),
                "re": flat.real[index].tolist(),
                "im": flat.imag[index].tolist(),
            }
        raise TypeError("only 1-d and 2-d arrays are encodable")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: encode(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.metadata.get("encode", True)
        }
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    raise TypeError(f"cannot encode {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    return json.dumps(encode(obj), sort_keys=True, indent=2) + "\n"


def strip_timing(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timing"}


ROUND_OFF_KEYS = frozenset(
    {
        "residual",
        "residuals",
        "max_residual",
        "superdiagonal_residual",
        "max_angle_sine",
        "outer_invariance",
        "joint_invariance",
        "phi_route_agreement",
        "defect_gap",
    }
)


def _drop_round_off(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {
            k: _drop_round_off(v) for k, v in obj.items() if k not in ROUND_OFF_KEYS
        }
    if isinstance(obj, list):
        return [_drop_round_off(x) for x in obj]
    return obj


def stable_part(report: dict) -> dict:
    """The encoded report without ``timing`` and without ``ROUND_OFF_KEYS``."""
    return _drop_round_off(encode(strip_timing(report)))
