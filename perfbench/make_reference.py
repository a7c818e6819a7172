"""Record ``reference.json``: the checked output of every op any seed can issue.

    python3 perfbench/make_reference.py [--output perfbench/reference.json]

Run from the root of a source checkout.  The reference is the program's
answer at the commit it was recorded on (stored as ``commit``); the benchmark
counts every later difference in exit code, dims or verdicts as a failed op.
Re-record only when a change means to alter those answers, and say which
entries moved.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from check import REFERENCE, input_digest, observe
from workloads import pool_ops

ROOT = Path(__file__).resolve().parent.parent


def commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=Path, default=REFERENCE)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from polyhardy.cli import main as cli_main

    entries = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        out = Path(tmp) / "report.json"
        for op in pool_ops(ROOT):
            files = []
            for s in op.scenarios:
                path = Path(tmp) / f"{s['label']}.json"
                path.write_text(json.dumps(s))
                files.append(str(path))
            out.unlink(missing_ok=True)
            code = cli_main([op.command, *files, "--quiet", "--output", str(out)])
            result = observe(op, code, out.read_text() if out.exists() else None)
            entries[op.key] = {"input": input_digest(op), "result": result}
            print(op.key, json.dumps(result, sort_keys=True), flush=True)
    args.output.write_text(
        json.dumps({"commit": commit(), "ops": entries}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
