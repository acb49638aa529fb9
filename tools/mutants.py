"""Mutation check of the deciders' tests.

    python tools/mutants.py

Each entry of ``tools/mutants.json`` names a mutant: a file under the
repository root, a piece of its text (``old``), what to put in its place
(``new``) and the pytest node ids (``tests``) that should catch the change.
The script copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory once, then for each mutant in turn writes the changed file there,
runs the named tests against the copy's ``src`` with a timeout and puts the
file back.  A mutant is

* killed when the tests fail (or time out),
* survived when they pass, and
* stale when ``old`` does not occur exactly once in the file, or when the
  named tests collect nothing, so the entry no longer fits the code.

It prints one line per mutant and a count, and exits 1 if any mutant
survived or is stale.  Standard library only; the mutants run one after
another in one process each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# pytest exit codes that mean the selection ran no test: usage error, nothing collected
NO_TESTS = (4, 5)


def run_mutant(copy: Path, mutant: dict) -> str:
    path = copy / mutant["file"]
    original = path.read_text(encoding="utf-8")
    if original.count(mutant["old"]) != 1:
        return "stale"
    path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant["tests"]]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        path.write_text(original, encoding="utf-8")
    if proc.returncode in NO_TESTS:
        return "stale"
    return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    outcomes = {"killed": 0, "survived": 0, "stale": 0}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for mutant in mutants:
            outcome = run_mutant(copy, mutant)
            outcomes[outcome] += 1
            print(f"{outcome:8} {mutant['id']}", flush=True)
    print(", ".join(f"{count} {outcome}" for outcome, count in outcomes.items()))
    return 1 if outcomes["survived"] or outcomes["stale"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
