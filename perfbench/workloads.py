"""Seeded inputs for the benchmark's three workloads.

Every generated scenario is a pure function of ``(kind, index)``, drawn with
the standard library's string-seeded ``random.Random`` and rounded to three
decimals.  The run seed only chooses which pool members a run uses and in
which order; the pools are fixed so that ``reference.json`` can hold the
recorded output of every input, with its digest, so that an input generated
differently shows up as a failed op.

A run's mix of input shapes and generator degrees is fixed (see
``op_list``); the seed picks which members fill it, so it varies the
coefficients.  That keeps per-op cost steady across seeds while the inputs
still differ.
"""
from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

PIPELINE = ["orbit", "wandering", "extract", "verify", "classify"]
OPTIONS = {"force": True, "margin": 2}

# pool shapes: kind -> (n, D=N cap, d_E, generator degree range, pool size)
SHAPES = {
    "n1-d1": (1, 5, 1, (1, 3), 48),
    "n1-d2": (1, 6, 2, (1, 2), 16),
    "n2-lin": (2, 4, 1, (1, 1), 16),
    "n2-cmp": (2, 5, 1, (1, 1), 16),
}

# Pool members that fail one of the benchmark's checks at the commit the
# reference was recorded on.  A workload must run without failed ops, so
# they are left out; each is a program defect, described in README.md.
KNOWN_DEFECTS = {"n2-cmp-05", "n2-cmp-10"}

# seeded ops per pass of corpus-n1: members per degree pattern, by shape
CORPUS_N1_MIX = {"n1-d1": 3, "n1-d2": 1}
COMPARE_PAIRS = 6  # of each kind: reordered and distinct

WORKLOADS = ("wold-n2", "compare-n2", "corpus-n1")
WARMUP = "z-minus-z1"


@dataclass(frozen=True)
class Op:
    """One CLI call: ``polyhardy <command> <files...>``."""

    key: str  # reference key
    command: str  # "run" | "compare"
    scenarios: tuple[dict, ...]


def _coefficient(rng: random.Random) -> str:
    mag = rng.uniform(0.5, 1.5)
    phase = rng.uniform(0.0, 2 * math.pi)
    re = round(mag * math.cos(phase), 3)
    im = round(mag * math.sin(phase), 3)
    return f"({re}{im:+}i)"


def _monomials(n: int, degree: int):
    """Exponent tuples (a, b_1..b_n) of total degree ``degree``."""
    for exps in itertools.product(range(degree + 1), repeat=n + 1):
        if sum(exps) == degree:
            yield exps


def _render_monomial(exps: tuple[int, ...], coord: int) -> list[str]:
    names = ["z"] + [f"z{i}" for i in range(1, len(exps))]
    factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(names, exps) if e]
    if coord:
        factors.append(f"e_{coord}")
    return factors


def _homogeneous_form(rng: random.Random, n: int, degree: int, d_e: int) -> str:
    terms = []
    for exps in _monomials(n, degree):
        for coord in range(d_e):
            terms.append("*".join([_coefficient(rng)] + _render_monomial(exps, coord)))
    return " + ".join(terms)


def degree_patterns(kind: str) -> list[tuple[int, int]]:
    lo, hi = SHAPES[kind][3]
    return list(itertools.combinations_with_replacement(range(lo, hi + 1), 2))


def scenario(kind: str, index: int) -> dict:
    """Pool member ``index`` of shape ``kind``: two homogeneous generators.

    The degrees cycle through the shape's patterns with the index; the
    coefficients are random.
    """
    n, cap, d_e, _, size = SHAPES[kind]
    if not 0 <= index < size:
        raise ValueError(f"{kind} pool has {size} members, not index {index}")
    rng = random.Random(f"{kind}:{index}")
    patterns = degree_patterns(kind)
    gens = [_homogeneous_form(rng, n, d, d_e) for d in patterns[index % len(patterns)]]
    return {
        "label": f"{kind}-{index:02d}",
        "grade": {"n": n, "D": cap, "N": cap, "d_E": d_e, "safe_margin": 1},
        "generators": gens,
        "pipeline": PIPELINE,
        "options": OPTIONS,
    }


def reordered(s: dict) -> dict:
    """The same subspace presented with its generators in reverse order."""
    return {**s, "label": s["label"] + "-reordered", "generators": s["generators"][::-1]}


def named_scenarios(root: Path, n: int) -> list[dict]:
    """The repository's hand-written scenario files with ``n`` inner variables."""
    out = []
    for path in sorted((root / "scenarios").glob("*.json")):
        data = json.loads(path.read_text())
        if data["grade"]["n"] == n:
            out.append(data)
    return out


def _run_op(s: dict) -> Op:
    return Op(f"run:{s['label']}", "run", (s,))


def _compare_op(first: dict, second: dict) -> Op:
    return Op(f"compare:{first['label']}/{second['label']}", "compare", (first, second))


def members(kind: str, pattern: int | None = None) -> list[dict]:
    """The pool of ``kind``, or its members of one degree pattern, without
    known defects."""
    size, step = SHAPES[kind][4], len(degree_patterns(kind))
    indices = range(size) if pattern is None else range(pattern, size, step)
    pool = [scenario(kind, i) for i in indices]
    return [s for s in pool if s["label"] not in KNOWN_DEFECTS]


def compare_pairs() -> tuple[list[Op], list[Op]]:
    """Reordered pairs (A, A reordered) and distinct pairs (A, B)."""
    pool = members("n2-cmp")
    reorder = [_compare_op(pool[2 * k], reordered(pool[2 * k])) for k in range(COMPARE_PAIRS)]
    distinct = [_compare_op(pool[2 * k + 1], pool[2 * k + 2]) for k in range(COMPARE_PAIRS)]
    return reorder, distinct


def op_list(workload: str, seed: int, root: Path) -> tuple[Op, list[Op]]:
    """The untimed warm-up op and the list the timed loop cycles through.

    The warm-up op is the named ``z-minus-z1`` run for every workload and
    seed.  It is short, so set-up time stays import, file generation and the
    cold first op, and its answer is known exactly.
    """
    rng = random.Random(f"{workload}/{seed}")
    named = {s["label"]: s for s in named_scenarios(root, 1) + named_scenarios(root, 2)}
    warmup = _run_op(named[WARMUP])
    if workload == "wold-n2":
        pool = members("n2-lin")
        rng.shuffle(pool)
        return warmup, [_run_op(named["pair-n2"])] + [_run_op(s) for s in pool]
    if workload == "compare-n2":
        reorder, distinct = compare_pairs()
        rng.shuffle(reorder)
        rng.shuffle(distinct)
        # alternate the two pair kinds so every run sees the same mix
        return warmup, [op for pair in zip(distinct, reorder) for op in pair]
    if workload == "corpus-n1":
        ops = [_run_op(s) for s in named_scenarios(root, 1)]
        for kind, count in CORPUS_N1_MIX.items():
            for pattern in range(len(degree_patterns(kind))):
                ops += [_run_op(s) for s in rng.sample(members(kind, pattern), count)]
        rng.shuffle(ops)
        return warmup, ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def pool_ops(root: Path) -> list[Op]:
    """Every op any seed can issue, for recording the reference."""
    ops = [_run_op(s) for s in named_scenarios(root, 1) + named_scenarios(root, 2)]
    for kind in ("n1-d1", "n1-d2", "n2-lin"):
        ops += [_run_op(s) for s in members(kind)]
    reorder, distinct = compare_pairs()
    return ops + reorder + distinct
