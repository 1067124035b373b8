"""Seeded benchmark of the sma library and command line.

    python3 benchmark/run.py --workload factor --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs as a closed loop: one
client, one operation at a time, no threads.  Small-tier and large-tier
batches alternate until --seconds have passed; every output is checked.
With --trace 0 the last line of stdout is the end-to-end result, with
--trace 1 it is the per-layer breakdown of a separate traced run.  Details,
medians with sample counts and tails go to .bench_out/ in the checkout.
End-to-end times are CPU times scaled to a reference machine speed (see
timing.py); the traced run reports plain CPU times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("factor", "invariants", "reject", "cli")

# Set-up is repeated and its median reported, so one slow repetition on a
# shared machine does not decide the figure.
SETUP_REPEATS = 3
# Batches per tier in each mode of the traced run; fixed so counts repeat.
TRACE_BATCHES = {"factor": 2, "invariants": 2, "reject": 2, "cli": 1}
# The traced run fails if more than this share of op time lies outside spans.
MAX_GLUE_FRAC = 0.05

LAYER_MS = (
    "relation.parse", "relation.validate", "relation.classes",
    "blockform.is_block_form", "blockform.build", "blockform.pattern",
    "automorphism.parse", "algebra.matrix_parse", "factor.conjugate",
    "automorphism.verify", "factor.factor", "automorphism.equal",
    "automorphism.apply", "automorphism.to_json",
    "transitive.cocycle_rank", "automorphism.enumerate", "oracle.random_map",
    "cli.validate", "cli.blockform", "cli.transrank", "cli.autos",
    "cli.verify", "cli.apply", "cli.factor",
)
LAYER_CALLS = ("automorphism.verify", "transitive.cocycle_rank", "oracle.random_map")
LAYER_COUNTS = (
    "automorphism.verify.rejected", "factor.factor.raised",
    "automorphism.enumerate.found", "cli.contract_breaks",
)
NO_WAITS = "not applicable: one client, one op at a time, no threads or queues"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summary(values: list[float]) -> dict:
    """Median with its sample count, and the highest percentile that still
    has at least ten samples above it (None with fewer than eleven)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    tail = None if k < 0 else {"percentile": 100 * (k + 1) / len(ordered), "value": ordered[k]}
    return {"median": statistics.median(ordered), "samples": len(ordered), "tail": tail}


def run_batch(wl, tr, cases):
    """Time one pass over a tier.  An op that raises is kept as its exception."""
    from timing import clock

    outcomes = []
    start = clock()
    for case in cases:
        try:
            outcomes.append(tr.op("op", wl.op, tr, case))
        except Exception as exc:  # counted as a failed op, never dropped
            outcomes.append(exc)
    return clock() - start, outcomes


def tally(wl, cases, outcomes, failures: list[str]) -> int:
    for case, out in zip(cases, outcomes):
        if isinstance(out, Exception):
            failures.append(f"{type(out).__name__}: {out}")
        elif problem := wl.check(case, out):
            failures.append(problem)
    return len(cases)


def make_workload(name: str):
    import workloads

    if name == "cli":
        return workloads.Cli(ROOT, sys.executable, OUT / f"cli-{os.getpid()}")
    return {"factor": workloads.Factor, "invariants": workloads.Invariants,
            "reject": workloads.Reject}[name]()


def set_up(wl, tr, seed: int):
    """Generate the inputs and make the warm-up pass; returns cases and problems."""
    from spans import Untraced

    cases = wl.generate(tr, seed)
    return cases, wl.warm_up(Untraced(), cases)


def self_check(wl, cases) -> list[str]:
    import inputs

    return [p for fam, rel in wl.relations(cases) for p in inputs.self_check(fam, rel)]


def measure(wl, cases, seconds: float) -> tuple[dict, list[float], int, list[str]]:
    """Batch CPU times per tier, and the reference times taken between them."""
    from spans import Untraced
    from timing import time_reference
    from workloads import TIERS

    tr = Untraced()
    samples = {tier: [] for tier in TIERS}
    refs: list[float] = []
    attempted, failures = 0, []
    deadline = perf_counter() + seconds
    while True:
        for tier in TIERS:
            time_reference(refs)
            elapsed, outcomes = run_batch(wl, tr, cases[tier])
            samples[tier].append(elapsed * 1e3)
            attempted += tally(wl, cases[tier], outcomes, failures)
        if perf_counter() >= deadline:
            return samples, refs, attempted, failures


def end_to_end(wl, args, import_s: float) -> tuple[dict, dict]:
    from spans import Untraced
    from timing import clock, scale, time_reference

    setups, setup_refs, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        time_reference(setup_refs)
        start = clock()
        cases, problems = set_up(wl, Untraced(), args.seed)
        setups.append(import_s + clock() - start)
    problems += self_check(wl, cases)
    samples, refs, attempted, failures = measure(wl, cases, args.seconds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_scale, loop_scale = scale(setup_refs), scale(refs)
    details = {
        "setup_s": summary([v * setup_scale for v in setups]),
        "small_ms": summary([v * loop_scale for v in samples["small"]]),
        "large_ms": summary([v * loop_scale for v in samples["large"]]),
        "unscaled": {"setup_s": summary(setups), "small_ms": summary(samples["small"]),
                     "large_ms": summary(samples["large"])},
        "reference_ms": {"setup": summary([v * 1e3 for v in setup_refs]),
                         "loop": summary([v * 1e3 for v in refs])},
        "import_s": import_s,
        "failures": failures[:20],
        "problems": problems,
    }
    metrics = {
        "setup_s": {"value": details["setup_s"]["median"], "unit": "s"},
        "small_p50_ms": {"value": details["small_ms"]["median"], "unit": "ms"},
        "large_p50_ms": {"value": details["large_ms"]["median"], "unit": "ms"},
        "ok_frac": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, details


def per_layer(wl, args) -> tuple[dict, dict]:
    import ops
    from spans import Tracer, Untraced
    from workloads import TIERS

    tr, plain = Tracer(), Untraced()
    with ops.traced_oracle(tr):
        cases, problems = set_up(wl, tr, args.seed)
    problems += self_check(wl, cases)
    attempted, failures = 0, []
    base = {"untraced": 0.0, "traced": 0.0}
    modes = (("untraced", plain), ("traced", tr))
    for b in range(TRACE_BATCHES[wl.name]):
        for k, tier in enumerate(TIERS):
            # Alternate which mode goes first, so neither gains from running second.
            for mode, t in modes if (b + k) % 2 == 0 else modes[::-1]:
                elapsed, outcomes = run_batch(wl, t, cases[tier])
                base[mode] += elapsed
                attempted += tally(wl, cases[tier], outcomes, failures)
        wl.probe(tr)

    self_s = tr.self_times()
    ms = lambda name: self_s.get(name, 0.0) * 1e3  # noqa: E731
    metrics = {f"{name}.ms": {"value": ms(name), "unit": "ms"} for name in LAYER_MS}
    metrics["cli.interpreter.ms"] = {"value": ms("cli.interpreter"), "unit": "ms"}
    metrics["cli.import.ms"] = {"value": ms("cli.import") - ms("cli.interpreter"), "unit": "ms"}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {"value": tr.calls(name), "unit": "count"}
    for name in LAYER_COUNTS:
        metrics[name] = {"value": tr.counts[name], "unit": "count"}
    wall, glue = tr.coverage()
    if glue > MAX_GLUE_FRAC * wall:
        problems.append(f"spans leave {glue / wall:.1%} of op time uncovered")
    metrics["trace.glue_frac"] = {"value": glue / wall, "unit": "ratio"}
    metrics["trace.untraced_ms"] = {"value": base["untraced"] * 1e3, "unit": "ms"}
    metrics["trace.traced_ms"] = {"value": base["traced"] * 1e3, "unit": "ms"}
    metrics["trace.overhead_frac"] = {
        "value": base["traced"] / base["untraced"] - 1, "unit": "ratio"}

    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"{wl.name}-seed{args.seed}-spans.jsonl")
    details = {"batches_per_tier_and_mode": TRACE_BATCHES[wl.name],
               "failures": failures[:20], "problems": problems}
    result = {"correct": not failures and not problems, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, details


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sma" / "__init__.py").is_file() or not (ROOT / "golden").is_dir():
        print(f"error: {ROOT} is not a checkout of sma (src/sma or golden/ missing)", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from timing import clock

    start = clock()
    import sma  # noqa: F401  (timed: importing the program is part of set-up)

    import_s = clock() - start
    wl = make_workload(args.workload)
    try:
        if args.trace:
            result, details = per_layer(wl, args)
        else:
            result, details = end_to_end(wl, args, import_s)
    finally:
        if args.workload == "cli":
            shutil.rmtree(wl.files, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "waits": NO_WAITS, **details, "result": result,
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": commit(),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    for problem in details["problems"] + details["failures"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"waits: {NO_WAITS}; details in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
