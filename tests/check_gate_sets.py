#!/usr/bin/env python3
"""Check that bench gate sets, baselines and CI's bench matrix agree.

Usage: tests/check_gate_sets.py

A gate set in tools/check_bench.py gates something only if a committed
bench/baselines/BENCH_<kind>.baseline.json holds its values and a row of
the bench-suite matrix in .github/workflows/ci.yml runs its bench. Exits 1,
naming each kind, when a non-empty gate set lacks either, or when a
baseline has no gate set; 0 otherwise.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep tools/ free of __pycache__
sys.path.insert(0, str(REPO_ROOT / "tools"))
from check_bench import BASELINE_DIR, GATE_SETS  # noqa: E402


def main():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    matrix_rows = set(re.findall(r"\{\s*bench:\s*([\w-]+)\s*,", workflow))
    baselines = {path.name[len("BENCH_"):-len(".baseline.json")]
                 for path in BASELINE_DIR.glob("BENCH_*.baseline.json")}

    gated = sorted(kind for kind, gates in GATE_SETS.items() if gates)
    errors = []
    for kind in gated:
        if kind not in baselines:
            errors.append(f"gate set '{kind}' has no committed baseline "
                          f"BENCH_{kind}.baseline.json")
        if kind not in matrix_rows:
            errors.append(f"gate set '{kind}' has no bench-suite row in "
                          f"ci.yml")
    for kind in sorted(baselines - GATE_SETS.keys()):
        errors.append(f"baseline BENCH_{kind}.baseline.json has no gate set")

    for error in errors:
        print(f"check_gate_sets: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_gate_sets: {len(gated)} gate sets, each with a "
          f"baseline and a bench-suite row")
    return 0


if __name__ == "__main__":
    sys.exit(main())
