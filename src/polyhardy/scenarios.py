"""Scenario files: a grade, generator polynomials, and a pipeline recipe.

The JSON schema is flat and explicit so scenarios can be written by hand:

    {
      "label": "z-minus-z1",
      "grade": {"n": 1, "D": 5, "N": 5, "d_E": 1, "safe_margin": 1},
      "generators": ["z - z1"],
      "pipeline": ["orbit", "wandering", "extract", "verify", "classify"],
      "options": {"margin": 2, "force": true}
    }
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PolynomialParseError
from .grading import Grade, HardyVector, MultiIndex
from .parsing import polynomial_to_string

DEFAULT_PIPELINE = ("orbit", "wandering", "extract", "verify", "classify")
RANDOM_SCENARIO_MARGIN = 5
_SCENARIO_KEYS = ("label", "grade", "generators", "pipeline", "options")
_GRADE_KEYS = ("n", "D", "N", "d_E", "safe_margin")
_OPTION_TYPES = {"margin": int, "force": bool}
_TYPE_NAMES = {
    int: "an integer",
    bool: "true or false",
    str: "a string",
    list: "a list",
    dict: "an object",
}


@dataclass(frozen=True)
class Scenario:
    label: str
    grade: Grade
    generators: tuple[str, ...]
    pipeline: tuple[str, ...] = DEFAULT_PIPELINE
    options: tuple[tuple[str, object], ...] = ()

    def option(self, key: str, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default


def _grade_to_json(grade: Grade) -> dict:
    return {
        "n": grade.n,
        "D": grade.outer_cap,
        "N": grade.inner_cap,
        "d_E": grade.coeff_dim,
        "safe_margin": grade.safe_margin,
    }


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind``, so that a JSON ``true`` is no
    integer and ``1.5`` no integer either; else a parse error naming ``what``."""
    if type(value) is not kind:
        raise PolynomialParseError(
            f"scenario {what} must be {_TYPE_NAMES[kind]}, not {value!r}"
        )
    return value


def _known(data: dict, keys, what: str) -> None:
    """A parse error naming the first key of ``data`` that is not in ``keys``,
    so that a misspelled key is not silently dropped."""
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise PolynomialParseError(
            f"scenario {what} {unknown[0]!r} must be one of {', '.join(keys)}"
        )


def _strings(value, what: str) -> tuple[str, ...]:
    return tuple(_typed(v, str, f"{what} entry") for v in _typed(value, list, what))


def _grade_from_json(data: dict) -> Grade:
    _typed(data, dict, "grade")
    _known(data, _GRADE_KEYS, "grade key")
    try:
        fields = {key: data[key] for key in _GRADE_KEYS[:3]}
    except KeyError as exc:
        raise PolynomialParseError(f"grade JSON missing key {exc}") from exc
    fields.update(d_E=data.get("d_E", 1), safe_margin=data.get("safe_margin", 1))
    return Grade(*(_typed(v, int, f"grade field '{k}'") for k, v in fields.items()))


def scenario_to_json(s: Scenario) -> dict:
    return {
        "label": s.label,
        "grade": _grade_to_json(s.grade),
        "generators": list(s.generators),
        "pipeline": list(s.pipeline),
        "options": {k: v for k, v in s.options},
    }


def scenario_from_json(data: dict) -> Scenario:
    """The scenario a parsed JSON object describes; a parse error for a
    missing or unknown key or a value of the wrong type."""
    _typed(data, dict, "JSON")
    _known(data, _SCENARIO_KEYS, "key")
    if "grade" not in data or "generators" not in data:
        raise PolynomialParseError("scenario JSON needs 'grade' and 'generators'")
    options = _typed(data.get("options", {}), dict, "options")
    _known(options, _OPTION_TYPES, "option")
    for key, kind in _OPTION_TYPES.items():
        if key in options:
            _typed(options[key], kind, f"option '{key}'")
    return Scenario(
        label=_typed(data.get("label", "unnamed"), str, "label"),
        grade=_grade_from_json(data["grade"]),
        generators=_strings(data["generators"], "generators"),
        pipeline=_strings(data.get("pipeline", list(DEFAULT_PIPELINE)), "pipeline"),
        options=tuple(sorted(options.items())),
    )


def load_scenario(path: str | Path) -> Scenario:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PolynomialParseError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_json(data)


def dump_scenario(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_json(s), indent=2, sort_keys=True) + "\n")


def random_homogeneous_generators(
    grade: Grade, count: int = 2, max_degree: int = 3, seed: int = 0
) -> list[HardyVector]:
    """Homogeneous generators keep capped orbit slices complete, which makes
    randomized runs reproducible witnesses instead of truncation noise."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        coeffs: dict[MultiIndex, complex] = {}
        for t in grade.exponents.tolist():
            if t[-1] != 0:
                continue
            if sum(t[:-1]) == deg:
                c = complex(rng.standard_normal(), rng.standard_normal())
                coeffs[MultiIndex(t[0], t[1:-1], 0)] = c
        out.append(HardyVector(grade, coeffs))
    return out


def random_pair_scenario(seed: int) -> Scenario:
    grade = Grade(1, 5, 5, 1)
    gens = random_homogeneous_generators(grade, count=2, max_degree=3, seed=seed)
    return Scenario(
        label=f"random-{seed:02d}",
        grade=grade,
        generators=tuple(polynomial_to_string(g) for g in gens),
        options=(("force", True), ("margin", RANDOM_SCENARIO_MARGIN)),
    )


def named_corpus() -> list[Scenario]:
    g1 = Grade(1, 5, 5, 1)
    g2 = Grade(2, 4, 4, 1)
    named = [
        ("one", g1, ("1",)),
        ("z", g1, ("z",)),
        ("z1", g1, ("z1",)),
        ("z-minus-z1", g1, ("z - z1",)),
        ("z2-minus-zz1", g1, ("z^2 - z*z1",)),
        ("pair-n2", g2, ("z - z1", "z - z2")),
    ]
    return [
        Scenario(label, grade, gens, options=(("force", True), ("margin", 2)))
        for label, grade, gens in named
    ]


def builtin_corpus(random_count: int = 20) -> list[Scenario]:
    return named_corpus() + [random_pair_scenario(seed) for seed in range(random_count)]
