from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

import polyhardy as ph
from polyhardy.scenarios import builtin_corpus, scenario_from_json

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def g1() -> ph.Grade:
    return ph.Grade(1, 5, 5, 1)


@pytest.fixture(scope="session")
def corpus_artifacts() -> dict[str, dict]:
    """Orbit, wandering, and extracted symbols for every bundled scenario."""
    out: dict[str, dict] = {}
    for scenario in builtin_corpus(random_count=20):
        grade = scenario.grade
        generators = [ph.parse_polynomial(t, grade) for t in scenario.generators]
        s = ph.orbit_span(generators, grade, int(scenario.option("margin", 2)))
        w = ph.wandering_subspace(s)
        theta = ph.extract_theta(s, w, force=True)
        phis = [ph.extract_phi(s, w, axis, force=True) for axis in range(grade.n)]
        out[scenario.label] = {
            "scenario": scenario,
            "grade": grade,
            "generators": generators,
            "s": s,
            "w": w,
            "theta": theta,
            "phis": phis,
        }
    return out


@pytest.fixture(scope="session")
def pool_member():
    """Orbit and wandering bases of a benchmark pool member, by label
    (``n2-cmp-08``), as ``perfbench/workloads.py`` generates it; with
    ``reordered=True``, of the same member with its generators reversed."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    @functools.cache
    def build(label: str, reordered: bool = False) -> dict:
        kind, index = label.rsplit("-", 1)
        data = workloads.scenario(kind, int(index))
        scenario = scenario_from_json(workloads.reordered(data) if reordered else data)
        grade = scenario.grade
        generators = [ph.parse_polynomial(t, grade) for t in scenario.generators]
        s = ph.orbit_span(generators, grade, int(scenario.option("margin", 2)))
        return {"scenario": scenario, "grade": grade, "s": s, "w": ph.wandering_subspace(s)}

    return build
