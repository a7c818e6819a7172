"""Benchmark of the ``polyhardy`` command line, end to end and per layer.

    python3 perfbench/run.py --workload wold-n2 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client drives ``polyhardy.cli.main`` in-process as a closed
loop: each op (one ``polyhardy run`` or ``polyhardy compare`` call, with
``--quiet --output``) starts only after the previous one returned.  Inputs are
generated from ``--seed`` (see ``workloads.py``) and written as scenario files
under ``.perfbench/``; every op's output is checked against ``reference.json``.
BLAS thread settings are left as the environment has them and recorded.

``--trace 0`` reports the end-to-end metrics: ``op_s.p50``, ``ops_per_s``,
``peak_rss_mb`` and ``setup_s``.  ``--trace 1`` runs the same untraced loop,
then a fixed number of ops with every layer boundary wrapped (``spans.py``),
and reports per-layer metrics and the tracing overhead.  The last line of
standard output is the result as one JSON object.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time is measured from here

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from check import Checker  # noqa: E402
from spans import NAMES, Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, Op, named_scenarios, op_list  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 3  # this process plus two fresh ones
SETUP_TIMEOUT_S = 60
# traced ops per workload: fixed, so that every count repeats exactly per seed
TRACE_OPS = {"wold-n2": 2, "compare-n2": 2, "corpus-n1": 27}
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
SHOWN_OPS = 10  # runs with at most this many timed ops list each op's time
TRACE_METRICS = metric_names() + [
    ("trace.ops", "count"),
    ("trace.op_s.p50", "s"),
    ("trace.overhead_s", "s"),
]


class Session:
    """The imported program, the op list and its scenario files."""

    def __init__(self, workload: str, seed: int, tmp: Path) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        import numpy  # noqa: F401  imported here so set-up time covers it
        import scipy  # noqa: F401

        from polyhardy.cli import main

        self.main = main
        self.warmup, self.ops = op_list(workload, seed, ROOT)
        self.files: dict[str, list[str]] = {}
        for op in [self.warmup, *self.ops]:
            paths = []
            for s in op.scenarios:
                path = tmp / f"{s['label']}.json"
                path.write_text(json.dumps(s, indent=2))
                paths.append(str(path))
            self.files[op.key] = paths
        self.output = tmp / "report.json"
        self.check_s = 0.0
        named = {s["label"] for n in (1, 2) for s in named_scenarios(ROOT, n)}
        self.checker = Checker(named)

    def execute(self, op: Op) -> float:
        """Run one op, check its output, and return its seconds."""
        self.output.unlink(missing_ok=True)
        argv = [op.command, *self.files[op.key], "--quiet", "--output", str(self.output)]
        start = time.perf_counter()
        try:
            code = self.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            seconds = time.perf_counter() - start
            print(f"{op.key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            self.checker.check(op, None, None)
            return seconds
        seconds = time.perf_counter() - start
        output = self.output.read_text() if self.output.exists() else None
        self.checker.check(op, code, output)
        self.check_s += time.perf_counter() - start - seconds
        return seconds

    def loop(self, seconds: float) -> tuple[list[float], float]:
        """Closed loop over the op list until ``seconds`` have passed.

        Returns each op's seconds and the loop's elapsed seconds, both
        without the time spent checking outputs.
        """
        samples: list[float] = []
        self.check_s = 0.0
        start = time.perf_counter()
        while time.perf_counter() - start - self.check_s < seconds:
            samples.append(self.execute(self.ops[len(samples) % len(self.ops)]))
        return samples, time.perf_counter() - start - self.check_s


def openblas_threads() -> int | None:
    """numpy's bundled OpenBLAS thread count, read without changing it."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        getter.argtypes = []
        return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }


def fresh_setups(args: argparse.Namespace, count: int) -> list[dict]:
    """Set-up measured again in new processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>12.6g} {unit:<6} {note}")


def end_to_end(args: argparse.Namespace, session: Session, setup_s: float) -> dict:
    samples, elapsed = session.loop(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = fresh_setups(args, SETUP_REPEATS - 1)
    setups = [setup_s] + [c["setup_s"] for c in children]
    checker = session.checker
    checker.attempted += sum(c["attempted"] for c in children)
    checker.failures += [f for c in children for f in c["failures"]]
    op_s, rate, setup = p50(samples), len(samples) / elapsed, statistics.median(setups)
    show("op_s.p50", op_s, "s", f"median of {len(samples)} timed ops")
    if len(samples) <= SHOWN_OPS:
        print("    " + ", ".join(f"{op.key} {t:.3f} s" for op, t in zip(session.ops, samples)))
    if len(samples) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(samples, n=10)[-1]
        show("op_s.p90", p90, "s", f"of {len(samples)} timed ops")
    show("ops_per_s", rate, "1/s", f"over {elapsed:.2f} s")
    show("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process")
    show("setup_s", setup, "s", "median of " + ", ".join(f"{s:.3f}" for s in setups))
    return {
        "op_s.p50": metric(op_s, "s"),
        "ops_per_s": metric(rate, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "setup_s": metric(setup, "s"),
    }


def per_layer(args: argparse.Namespace, session: Session) -> dict:
    untraced, _ = session.loop(args.seconds)
    tracer = Tracer()
    traced = []
    with tracer.installed():
        for i, op in enumerate(session.ops[: TRACE_OPS[args.workload]]):
            tracer.op = i
            traced.append(session.execute(op))
    tracer.write(WORKDIR / f"spans-{args.workload}-seed{args.seed}.json")
    values = tracer.metrics()
    values["trace.ops"] = len(traced)
    values["trace.op_s.p50"] = p50(traced)
    values["trace.overhead_s"] = p50(traced) - p50(untraced)
    if tracer.missing:
        print("boundaries not found: " + ", ".join(tracer.missing), file=sys.stderr)
    total = sum(traced)
    print(f"  self time per layer boundary over {len(traced)} traced ops ({total:.3f} s):")
    for name in sorted(NAMES, key=lambda b: -values[f"{b}.self_s"]):
        if values[f"{name}.calls"]:
            show(name, values[f"{name}.self_s"], "s",
                 f"{values[name + '.self_s'] / total:6.1%} self, "
                 f"{values[name + '.s'] / total:6.1%} inclusive, "
                 f"{values[name + '.calls']} calls")
    show("tracing overhead", values["trace.overhead_s"], "s",
         f"traced op_s.p50 {p50(traced):.6g} s minus untraced {p50(untraced):.6g} s "
         f"({len(untraced)} ops)")
    return {name: metric(values[name], unit) for name, unit in TRACE_METRICS}


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for the set-up median
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    for needed in ("src/polyhardy", "scenarios"):
        if not (ROOT / needed).is_dir():
            print(f"error: {ROOT / needed} not found; run from a source checkout",
                  file=sys.stderr)
            return 2
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        session = Session(args.workload, args.seed, tmp)
        session.execute(session.warmup)
        setup_s = time.perf_counter() - STARTED
        checker = session.checker
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "attempted": checker.attempted,
                              "failures": checker.failures}))
            return 0
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            metrics = per_layer(args, session)
        else:
            metrics = end_to_end(args, session, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    show("failed_frac", checker.failed / checker.attempted, "share",
         f"{checker.failed} of {checker.attempted} ops failed")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
