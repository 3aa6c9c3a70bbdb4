#!/usr/bin/env python3
"""Check that bench gate sets, baselines, CI's bench matrix and CMake agree.

Usage: tests/check_gate_sets.py

A gate set in tools/check_bench.py gates something only if a committed
bench/baselines/BENCH_<kind>.baseline.json holds its values and a row of
the bench-suite matrix in .github/workflows/ci.yml runs its bench, and a
paper bench runs in CI only if a row names its target. check_bench.py
skips a gate whose value the baseline lacks (ceilings aside), so each such
gate would stop gating while CI stays green. Exits 1, naming each, when a
non-empty gate set lacks a baseline or a row, when a non-ceiling gate has
no value in its baseline, when a baseline has no gate set or its `bench`
field is not its file's kind, when a `dynkge_add_bench` target in
bench/CMakeLists.txt is the target of no row, or when a row's target is
one CMake does not build; 0 otherwise.
"""

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # keep tools/ free of __pycache__
sys.path.insert(0, str(REPO_ROOT / "tools"))
from check_bench import BASELINE_DIR, GATE_SETS, lookup  # noqa: E402


def main():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    rows = re.findall(r"\{\s*bench:\s*([\w-]+)\s*,\s*target:\s*([\w-]+)\s*\}",
                      workflow)
    matrix_rows = {bench for bench, _ in rows}
    bench_cmake = (REPO_ROOT / "bench" / "CMakeLists.txt").read_text()
    paper_benches = set(re.findall(r"^dynkge_add_bench\((\w+)\)", bench_cmake,
                                   re.MULTILINE))
    built = paper_benches | set(re.findall(
        r"^(?:dynkge_add_micro|add_executable)\((\w+)",
        bench_cmake + (REPO_ROOT / "tools" / "CMakeLists.txt").read_text(),
        re.MULTILINE))
    baselines = {path.name[len("BENCH_"):-len(".baseline.json")]:
                 json.loads(path.read_text())
                 for path in BASELINE_DIR.glob("BENCH_*.baseline.json")}

    gated = sorted(kind for kind, gates in GATE_SETS.items() if gates)
    errors = []
    resolved = 0
    for kind in gated:
        if kind not in baselines:
            errors.append(f"gate set '{kind}' has no committed baseline "
                          f"BENCH_{kind}.baseline.json")
        else:
            for path, direction, _ in GATE_SETS[kind]:
                if direction == "ceiling":
                    continue
                if lookup(baselines[kind], path) is None:
                    errors.append(f"gate '{path}' of '{kind}' has no value "
                                  f"in BENCH_{kind}.baseline.json")
                else:
                    resolved += 1
        if kind not in matrix_rows:
            errors.append(f"gate set '{kind}' has no bench-suite row in "
                          f"ci.yml")
    for kind in sorted(baselines):
        if kind not in GATE_SETS:
            errors.append(f"baseline BENCH_{kind}.baseline.json has no gate "
                          f"set")
        bench = baselines[kind].get("bench")
        if bench != kind:
            errors.append(f"baseline BENCH_{kind}.baseline.json has bench "
                          f"field {bench!r}, not '{kind}'")
    for target in sorted(paper_benches - {target for _, target in rows}):
        errors.append(f"bench target '{target}' is the target of no "
                      f"bench-suite row in ci.yml")
    for bench, target in rows:
        if target not in built:
            errors.append(f"bench-suite row '{bench}' names target "
                          f"'{target}', which CMake does not build")

    for error in errors:
        print(f"check_gate_sets: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_gate_sets: {len(gated)} gate sets, each with a "
          f"baseline and a bench-suite row; {resolved} non-ceiling gates, "
          f"each with a baseline value; {len(rows)} rows, each naming a "
          f"target CMake builds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
