#!/usr/bin/env python3
"""Gate bench results against a committed baseline.

Usage:
    tools/check_bench.py BENCH_<name>.json [baseline.json] [--tolerance 0.10]
    tools/check_bench.py BENCH_<name>.json --update-baseline

Reads the uniform JSON block written by any bench binary's --bench-json
flag and by `dynkge serve-bench --bench-json` (obs::BenchReporter) and
compares the gated metrics against the committed baseline. The gate set is
selected by the result's "bench" field. When the baseline path is omitted
it defaults to bench/baselines/BENCH_<bench>.baseline.json next to this
script's repo.

--update-baseline rewrites that baseline from the current results (pretty-
printed, sorted keys) instead of checking, so refreshing a gate after an
intentional perf change is one command.

Exit codes (distinct so CI failures are self-explanatory):
    0  every gate held
    1  malformed input: unreadable/invalid JSON, unknown bench kind,
       bench-kind mismatch, or missing/unsupported schema_version
    2  a gated metric is missing from the current results (the bench
       stopped emitting it -- usually a rename or a dropped sweep point)
    3  a metric is out of its gate (a real regression)

Gate design: four directions.
    exact    current == baseline. In-run-computed booleans/integers and
             pure cost-model arithmetic: platform-independent, so any
             difference is a logic change.
    near     |current - baseline| <= tol * max(|baseline|, 1e-12).
             Deterministic floats (loss/TCA/MRR/modeled comm seconds):
             bit-stable for a fixed seed on one platform, but libm
             differences across runner images move them slightly; the
             tight band still catches real regressions. Epoch counts also
             gate "near": a libm nudge near a plateau boundary can shift
             convergence by an epoch or two, a regression shifts it far.
    higher   current >= baseline * (1 - tol). Throughputs.
    lower    current <= baseline * (1 + tol). Timings: wide tolerances,
             shared CI runners jitter by integer factors; the gate should
             catch "10x slower", not scheduler noise.
    ceiling  current <= tol (absolute bound, baseline ignored). Claims
             with a paper-level constant, e.g. telemetry overhead < 2%.

Metric names may contain dots ("n2.allreduce.tt_sim_seconds" lives under
"metrics.gauges"), so gate paths resolve greedily: at every level the
longest dotted prefix that is a literal key wins, with backtracking.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "bench" / "baselines"

# BENCH_*.json layouts this checker understands.
KNOWN_SCHEMA_VERSIONS = (1,)

NEAR_DEFAULT = 0.05  # relative band for "near" gates
TIMING_TOL = 9.0     # wide band for sim/wall timing gates
EPOCH_TOL = 0.25     # "near" band for convergence epoch counts


def g(name, direction="near", tol=None):
    """Gauge metric gate (BenchReporter layout)."""
    return (f"metrics.gauges.{name}", direction, tol)


def c(name, direction="exact", tol=None):
    """Counter metric gate (BenchReporter layout)."""
    return (f"metrics.counters.{name}", direction, tol)


def f(name):
    """Boolean flag gate (BenchReporter layout) -- always exact."""
    return (f"flags.{name}", "exact", None)


def training_run_gates(key, with_tca=True):
    """Standard gate block for one seeded training run under `key`."""
    gates = [c(f"{key}.epochs", "near", EPOCH_TOL),
             g(f"{key}.tt_sim_seconds", "lower", TIMING_TOL)]
    if with_tca:
        gates.append(g(f"{key}.tca"))
    gates.append(g(f"{key}.mrr"))
    return gates


# ---------------------------------------------------------------------------
# Gate sets, one per bench binary.

# dynkge serve-bench with --mixed-updates: steady-state and churn serving.
# The steady phase gates its median latency, not p99: with CI's arguments
# (1500 queries, batch 32) it times 47 batches, and each batch's time is
# recorded once per query, so its p99 is the single slowest batch.
SERVE_GATES = [
    g("steady.cache_hit_rate", "higher"),
    g("steady.qps", "higher", 0.90),
    g("steady.p50_seconds", "lower", TIMING_TOL),
    g("churn.qps", "higher", 0.90),
    g("churn.p99_seconds", "lower", TIMING_TOL),
    c("churn.versions_published", "higher"),
    c("churn.failed_requests"),
    g("baseline_scan_qps", "higher", 0.90),
]

# bench_kernels: blocked training step throughput over fixed epochs.
TRAIN_GATES = [gate
               for key in ("baseline", "combined")
               for gate in (c(f"{key}.epochs"),
                            g(f"{key}.positives_per_cpu_s", "higher", 0.90))]

FIG2_GATES = [
    c("epochs", "near", EPOCH_TOL),
    g("rows_per_step.first_epoch"),
    g("rows_per_step.last_epoch"),
    g("final_val_tca"),
    f("rows_decreasing"),
]

FIG3_GATES = [gate
              for v in ("dense", "average", "averagex0.1", "random")
              for gate in (c(f"{v}.epochs", "near", EPOCH_TOL),
                           g(f"{v}.mean_sparsity"),
                           g(f"{v}.tca"), g(f"{v}.mrr"))] + [
    f("random_tracks_dense"),
]

FIG4_GATES = [gate
              for v in ("twobit", "twobit_rs")
              for gate in (c(f"{v}.epochs", "near", EPOCH_TOL),
                           g(f"{v}.tca"), g(f"{v}.mrr"))] + [
    f("curves_overlap"),
]

FIG5_GATES = [gate
              for n in (1, 2, 4, 8) for v in ("onebit", "twobit")
              for gate in training_run_gates(f"n{n}.{v}", with_tca=False)] + [
    g("scale.max.mrr"),
    f("best_scale_is_max"),
]

FIG6_GATES = [gate
              for v in ("fb15k.without_rp", "fb15k.with_rp")
              for gate in (c(f"{v}.epochs", "near", EPOCH_TOL),
                           g(f"{v}.tca"), g(f"{v}.mrr"))] + [
    g(f"fb250k.n{n}.{v}.epoch_seconds", "lower", TIMING_TOL)
    for n in (1, 2, 4, 8, 16) for v in ("without_rp", "with_rp")
]

TABLE4_GATES = [gate
                for r in ("r1_of_1", "r1_of_5", "r1_of_10", "r1_of_20",
                          "r1_of_30", "r5_of_5", "r10_of_10")
                for gate in training_run_gates(r, with_tca=True)] + [
    f("ss_time_win"),
    f("mrr_rises_with_pool"),
]

# The all-reduce and all-gather columns are the paper's baseline runs
# (Table 1 here, Table 2 in fig9), so they gate TCA as well.
FIG8_GATES = [gate
              for n in (1, 2, 4, 8)
              for m in ("allreduce", "allgather", "rs", "rs_1bit",
                        "rs_1bit_rp_ss")
              for gate in training_run_gates(
                  f"n{n}.{m}", with_tca=m in ("allreduce", "allgather"))] + [
    g("mrr_gain_pct"),
    f("combined_saves_time"),
]

FIG9_GATES = [gate
              for n in (1, 2, 4, 8, 16)
              for m in ("allreduce", "allgather", "drs", "drs_1bit",
                        "drs_1bit_rp_ss")
              for gate in training_run_gates(
                  f"n{n}.{m}", with_tca=m in ("allreduce", "allgather"))] + [
    g("drs_allreduce_fraction"),
    g("drs_1bit_allreduce_fraction"),
    g("mrr_gain_pct"),
    f("combined_saves_time"),
]

# Pure alpha-beta arithmetic: platform-independent, gates exactly.
COST_MODEL_GATES = [gate
                    for net in ("aries.raw", "aries.quant", "ethernet.raw")
                    for r in (2, 4, 8, 16, 32)
                    for gate in (g(f"{net}.r{r}.allreduce_ms", "exact"),
                                 g(f"{net}.r{r}.allgather_ms", "exact"),
                                 f(f"{net}.r{r}.allgather_wins"))]

PS_GATES = [gate
            for n in (2, 4, 8, 16)
            for t in ("param_server", "allreduce", "allgather")
            for gate in (g(f"n{n}.{t}.comm_seconds"),
                         g(f"n{n}.{t}.epoch_seconds", "lower", TIMING_TOL))]

FEEDBACK_GATES = [gate
                  for v in ("rs", "rs_residual", "onebit_max",
                            "onebit_max_ef", "onebit_mean", "onebit_mean_ef")
                  for gate in (c(f"{v}.epochs", "near", EPOCH_TOL),
                               g(f"{v}.final_val"),
                               g(f"{v}.tca"), g(f"{v}.mrr"))]

# Hogwild at >1 thread is racy by design; gate the deterministic series.
HOGWILD_GATES = [gate
                 for p in (1, 2, 4)
                 for gate in (c(f"distributed.p{p}.epochs", "near",
                                EPOCH_TOL),
                              g(f"distributed.p{p}.tca"),
                              g(f"distributed.p{p}.mrr"))] + [
    g("hogwild.p1.tca"),
    g("hogwild.p1.mrr"),
]

# Top-K vs RS at equal kept-bytes. topk_k is derived in-run from the RS
# epoch log (deterministic), so it gates exactly alongside the headline
# "topk_mrr_ge_rs" claim.
TOPK_VS_RS_GATES = [gate
                    for v in ("rs", "topk")
                    for gate in (c(f"{v}.epochs", "near", EPOCH_TOL),
                                 g(f"{v}.tca"), g(f"{v}.mrr"),
                                 g(f"{v}.mean_rows_sent"))] + [
    c("topk_k"),
    g("kept_rows_ratio"),
    f("kept_bytes_matched"),
    f("topk_mrr_ge_rs"),
]

# The sweep itself depends on the host's core count, so only the
# pool-size-independent outputs gate.
HOST_PARALLELISM_GATES = [
    f("deterministic_across_pool_sizes"),
    c("epochs", "near", EPOCH_TOL),
    g("final_mean_loss"),
    g("best_host_speedup", "higher", 0.95),
]

OBS_OVERHEAD_GATES = [
    # The paper-level claim: < 2% wall overhead with every sink on.
    g("overhead_ratio", "ceiling", 0.02),
    f("outputs_identical"),
    c("epochs", "near", EPOCH_TOL),
    c("trace_spans", "near", EPOCH_TOL),
    c("events_written", "near", EPOCH_TOL),
]

GATE_SETS = {
    "serve": SERVE_GATES,
    "train": TRAIN_GATES,
    "fig2_nonzero_rows": FIG2_GATES,
    "fig3_selection_thresholds": FIG3_GATES,
    "fig4_2bit_random_selection": FIG4_GATES,
    "fig5_quant_1bit_vs_2bit": FIG5_GATES,
    "fig6_relation_partition": FIG6_GATES,
    "table4_fig7_sample_selection": TABLE4_GATES,
    "fig8_combined_fb15k": FIG8_GATES,
    "fig9_combined_fb250k": FIG9_GATES,
    "ablation_cost_model": COST_MODEL_GATES,
    "ablation_parameter_server": PS_GATES,
    "ablation_feedback": FEEDBACK_GATES,
    "ablation_hogwild": HOGWILD_GATES,
    "topk_vs_rs": TOPK_VS_RS_GATES,
    "host_parallelism": HOST_PARALLELISM_GATES,
    "obs_overhead": OBS_OVERHEAD_GATES,
    # Timing-only micro benches: emit for the artifact trail, nothing is
    # stable enough across runners to gate.
    "micro_collectives": [],
    "micro_quantize": [],
    "serve_throughput": [],
}


def lookup(node, path):
    """Resolve a dotted gate path, longest-literal-key-first.

    Metric names themselves contain dots, so "metrics.gauges.n2.ag.tca"
    must match node["metrics"]["gauges"]["n2.ag.tca"]. Backtracks on
    ambiguity.
    """
    if path == "":
        return node
    if not isinstance(node, dict):
        return None
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        key = ".".join(parts[:i])
        if key in node:
            found = lookup(node[key], ".".join(parts[i:]))
            if found is not None:
                return found
    return None


def check_schema_version(doc, label):
    version = doc.get("schema_version")
    if version not in KNOWN_SCHEMA_VERSIONS:
        return (f"{label}: missing or unsupported schema_version {version!r} "
                f"(known: {list(KNOWN_SCHEMA_VERSIONS)})")
    return None


def check(current, baseline, default_tolerance):
    """Returns (malformed, missing, failed) failure-message lists."""
    kind = current.get("bench")
    base_kind = baseline.get("bench")
    if kind != base_kind:
        return ([f"bench kind mismatch: current is '{kind}', "
                 f"baseline is '{base_kind}'"], [], [])
    gates = GATE_SETS.get(kind)
    if gates is None:
        return ([f"unknown bench kind '{kind}' "
                 f"(expected one of {sorted(GATE_SETS)})"], [], [])
    for doc, label in ((current, "current"), (baseline, "baseline")):
        error = check_schema_version(doc, label)
        if error:
            return ([error], [], [])

    missing, failed = [], []
    for path, direction, override in gates:
        base = lookup(baseline, path)
        cur = lookup(current, path)
        if direction != "ceiling" and base is None:
            # The baseline doesn't gate this metric (e.g. a sweep point the
            # committed run didn't cover).
            continue
        if cur is None:
            missing.append(f"{path}: missing from current results")
            continue
        tol = default_tolerance if override is None else override
        if direction == "exact":
            ok = cur == base
            bound = base
        elif direction == "near":
            tol = NEAR_DEFAULT if override is None else override
            bound = tol * max(abs(float(base)), 1e-12)
            ok = abs(float(cur) - float(base)) <= bound
            bound = f"{base:g}±{bound:g}"
        elif direction == "higher":
            bound = base * (1.0 - tol)
            ok = cur >= bound
        elif direction == "ceiling":
            bound = tol  # absolute bound; the baseline value is advisory
            ok = cur <= bound
        else:  # lower
            bound = base * (1.0 + tol)
            ok = cur <= bound
        status = "ok  " if ok else "FAIL"
        base_text = "-" if base is None else f"{base:g}"
        bound_text = bound if isinstance(bound, str) else f"{bound:g}"
        print(f"  [{status}] {path}: {cur:g} vs baseline {base_text} "
              f"({direction}, bound {bound_text})")
        if not ok:
            failed.append(f"{path}: {cur:g} violates {direction} bound "
                          f"{bound_text} (baseline {base_text})")
    return ([], missing, failed)


def default_baseline_path(current):
    kind = current.get("bench")
    return BASELINE_DIR / f"BENCH_{kind}.baseline.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="BENCH_<name>.json from this run")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline (default: bench/baselines/"
                             "BENCH_<bench>.baseline.json)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="default relative tolerance (default 0.10)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current results "
                             "instead of checking")
    args = parser.parse_args()

    try:
        with open(args.current) as handle:
            current = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_bench: {error}", file=sys.stderr)
        return 1

    error = check_schema_version(current, "current")
    if error:
        print(f"check_bench: {error}", file=sys.stderr)
        return 1
    if current.get("bench") not in GATE_SETS:
        print(f"check_bench: unknown bench kind "
              f"'{current.get('bench')}'", file=sys.stderr)
        return 1

    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path(current))

    if args.update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        with open(baseline_path, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"check_bench: baseline updated: {baseline_path}")
        return 0

    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_bench: {error}", file=sys.stderr)
        return 1

    print(f"check_bench: {args.current} vs {baseline_path} "
          f"(default tolerance {args.tolerance:.0%})")
    malformed, missing, failed = check(current, baseline, args.tolerance)
    for group, code, label in ((malformed, 1, "malformed"),
                               (failed, 3, "out-of-gate"),
                               (missing, 2, "missing-metric")):
        if group:
            print(f"check_bench: {len(group)} {label} failure(s):",
                  file=sys.stderr)
            for failure in group:
                print(f"  {failure}", file=sys.stderr)
    if malformed:
        return 1
    if failed:
        return 3
    if missing:
        return 2
    print("check_bench: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
