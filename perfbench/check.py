"""What the benchmark checks in each op's output, and the recorded reference.

An op's observed record is its exit code plus the dims and verdicts the
report carries: orbit, wandering and certified dims and every verdict for
``run``; certified dims and the certificate verdict for ``compare``.  It must
equal the record ``make_reference.py`` wrote for the same input at the seed
commit, except that a ``run`` verdict may go from failing to passing
(see ``agrees``).  On top of that, two facts are known mathematically and checked on
their own: a compare of a scenario with itself, generators reordered, must
``coincide``, and the repository's named scenarios pass every verdict.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Op

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def input_digest(op: Op) -> str:
    text = json.dumps([op.command, *op.scenarios], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def observe(op: Op, exit_code: int | None, output: str | None) -> dict:
    """The checked facts of one op's result; unreadable output stays visible."""
    record: dict = {"exit": exit_code}
    if output is None:
        return record
    try:
        data = json.loads(output)
        if op.command == "run":
            steps = data["steps"]
            record["orbit"] = [steps["orbit"]["dim"], steps["orbit"]["n_safe_columns"]]
            wandering = steps["wandering"]
            record["wandering"] = [wandering["dim"], wandering["certified"]]
            record["verdicts"] = data["verdicts"]
        else:
            record["certified_dims"] = data["certified_dims"]
            record["certificate"] = data["certificate"]["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        record["unreadable"] = f"{type(exc).__name__}: {exc}"
    return record


def agrees(expected: dict, record: dict) -> bool:
    """Equal to the reference, or better only in ``run`` verdicts.

    Every ``run`` verdict is an identity that holds for each invariant
    subspace inside the caps, so a verdict the reference failed may start to
    pass (a fix); one it passed may not fail, and dims may not move.
    """
    if expected == record:
        return True
    if "verdicts" not in expected or "verdicts" not in record:
        return False
    rest = {k: v for k, v in record.items() if k not in ("exit", "verdicts")}
    if rest != {k: v for k, v in expected.items() if k not in ("exit", "verdicts")}:
        return False
    got = record["verdicts"]
    kept = set(got) == set(expected["verdicts"]) and all(
        got[k] for k, passed in expected["verdicts"].items() if passed
    )
    return kept and record["exit"] == (0 if got.get("all") else 2)


def known_fact_errors(op: Op, record: dict, named: set[str]) -> list[str]:
    errors = []
    if op.command == "compare":
        first, second = op.scenarios
        same = first["grade"] == second["grade"]
        if same and first["generators"] == second["generators"][::-1]:
            if record.get("certificate") != "coincide":
                errors.append("reordered generators did not coincide")
    elif op.scenarios[0]["label"] in named:
        if not record.get("verdicts", {}).get("all"):
            errors.append("a named scenario failed a verdict")
    return errors


class Checker:
    """Counts attempted and failed ops against the reference."""

    def __init__(self, named: set[str]) -> None:
        self.entries = json.loads(REFERENCE.read_text())["ops"]
        self.named = named
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op: Op, exit_code: int | None, output: str | None) -> None:
        self.attempted += 1
        record = observe(op, exit_code, output)
        expected = self.entries.get(op.key)
        problems = known_fact_errors(op, record, self.named)
        if expected is None or expected["input"] != input_digest(op):
            problems.append("input not in the reference")
        elif not agrees(expected["result"], record):
            problems.append(f"got {record}, reference {expected['result']}")
        if problems:
            self.failures.append(f"{op.key}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)
