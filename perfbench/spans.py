"""Spans at the program's layer boundaries, recorded from the benchmark's side.

``Tracer.installed()`` replaces each boundary function, in every ``polyhardy``
module that holds a reference to it, with a wrapper that records a span and
the boundary's counters.  Rebinding the name in every module covers each
place the program looks it up: the names ``cli`` imports, ``subspace``'s own
kernels, ``shift_matrix`` in ``subspace``, ``blh``, ``classify`` and
``operators``, and local imports, which read the module attribute at call
time.  ``grading`` has no boundary: its cached index tables show up as the
callers' self time, and its dimensions as ``.max_rows`` and ``.max_dim``.

Spans are kept in memory and written out when the traced pass ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

BOUNDARIES = {
    "subspace": (
        "wold_reconstruction",
        "orbit_span",
        "wandering_subspace",
        "check_invariant",
        "build_from_theta",
        "max_principal_angle_sine",
        "orthonormal_columns",
        "coordinate_slice",
    ),
    "classify": ("sylvester_nullspace", "coincide", "doubly_commuting_classification"),
    "blh": (
        "extract_theta",
        "extract_phi",
        "extract_phi_via_theta",
        "verify_intertwining",
        "is_isometric_multiplier",
        "wold_multiplication_consistency",
    ),
    "operators": ("shift_matrix", "model_tuple"),
    "parsing": ("parse_polynomial",),
    "scenarios": ("load_scenario",),
    "reporting": ("canonical_json",),
    "cli": ("run_pipeline",),
}
NAMES = [f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns]
MATRIX_KERNELS = ("subspace.orthonormal_columns", "subspace.coordinate_slice")
SHIFT = "operators.shift_matrix"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s")]
        out += [(f"{name}.self_s", "s"), (f"{name}.errors", "count")]
        if name in MATRIX_KERNELS:
            out += [(f"{name}.max_rows", "count"), (f"{name}.input_cells", "count")]
        if name == SHIFT:
            out.append((f"{name}.max_dim", "count"))
    return out


class Tracer:
    """Span recorder; spans of one op share ``op``, nesting is by ``parent``."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._max_rows = dict.fromkeys(MATRIX_KERNELS, 0)
        self._cells = dict.fromkeys(MATRIX_KERNELS, 0)
        self._max_dim = 0

    def _count(self, name: str, args: tuple) -> None:
        shape = getattr(args[0], "shape", None) if args else None
        if name in MATRIX_KERNELS and shape is not None and len(shape) == 2:
            self._max_rows[name] = max(self._max_rows[name], int(shape[0]))
            self._cells[name] += int(shape[0]) * int(shape[1])
        elif name == SHIFT and args:
            self._max_dim = max(self._max_dim, int(getattr(args[0], "dim", 0)))

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else -1,
                "op": self.op,
                "error": None,
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._count(name, args)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block, then restore."""
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "polyhardy" or key.startswith("polyhardy.")
        ]
        patched = []
        try:
            for mod_name, fns in BOUNDARIES.items():
                home = importlib.import_module(f"polyhardy.{mod_name}")
                for fn_name in fns:
                    original = getattr(home, fn_name, None)
                    if original is None:
                        # a later program version may drop a boundary; it then reads 0
                        self.missing.append(f"{mod_name}.{fn_name}")
                        continue
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per boundary: calls, inclusive seconds, self seconds, errors."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] >= 0:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for name in NAMES:
            out.update({f"{name}.calls": 0, f"{name}.s": 0.0})
            out.update({f"{name}.self_s": 0.0, f"{name}.errors": 0})
        for span, children in zip(self.spans, child_time):
            name = span["name"]
            duration = span["end"] - span["start"]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += duration - children
            out[f"{name}.errors"] += span["error"] is not None
        for name in MATRIX_KERNELS:
            out[f"{name}.max_rows"] = self._max_rows[name]
            out[f"{name}.input_cells"] = self._cells[name]
        out[f"{SHIFT}.max_dim"] = self._max_dim
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "missing": self.missing}))
