"""Record the digests of the ``axioms-z4`` op outputs.

    python3 perfbench/record_digests.py

Runs the README axiom-suite command once per trial seed 0..COUNT-1 and
stores a digest of each ``--json`` stdout in ``axioms_z4_digests.json``.  The
benchmark then counts any change to those bytes as a failed op, so rerun this
only when a change of the verdict bytes is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import load_nangle  # noqa: E402

# Trial seeds covered by the table; a run cycles through all of them.
COUNT = 2048


def main() -> int:
    load_nangle()
    import workloads

    digests = []
    for seed in range(COUNT):
        rc, out = workloads.run_axioms_cli(seed)
        if rc != 0 or not json.loads(out)["passed"]:
            print(f"error: trial seed {seed} did not pass (exit code {rc})", file=sys.stderr)
            return 1
        digests.append(workloads.stdout_digest(out))
    table = {"argv": workloads.AXIOMS_ARGV, "digests": digests}
    workloads.DIGESTS.write_text(json.dumps(table, indent=0) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
