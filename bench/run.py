"""Benchmark entry point for the polyrings invariant pipeline.

usage: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ (nothing needs installing). One client, closed loop.

Each run is a series of passes over the workload's inputs, each pass
in a fresh worker process, bench/worker.py (the package's caches are
process-wide), until the timed calls add up to --seconds and at least MIN_PASSES
passes have run. Every pass runs the same inputs in the same order, and
an item's latency is its least over the passes ("best of N", as timeit
does): contention from other tenants of a shared machine only ever adds
time, and on a two-core VM it came in stretches of seconds that moved a
per-item median by 20% between runs, against 5% for the minimum.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; set-up time
is the median over SETUP_PROBES extra processes and the passes.
--trace 1 alternates passes with every layer's public functions wrapped
in spans and untraced passes, reports the per-layer metrics, and takes
the tracing overhead as traced minus untraced item latency.

A human-readable summary comes first; the last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 5
TRACE_MIN_PASSES = 3
RUN_LIMIT_S = 170


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def child_env(seed: int) -> dict:
    """Environment of every process the benchmark starts.

    Bytecode goes to a cache prefix under .bench_out even where
    PYTHONDONTWRITEBYTECODE is set, so neither a worker nor a CLI child
    recompiles the package on every start. The hash seed follows the
    workload seed, so one seed repeats one run exactly.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def worker(args, tag: str, *extra: str, deadline: float) -> dict:
    """Run bench/worker.py once; returns its result with the set-up time
    and the wall time of the whole process."""
    out = OUT / f"{args.workload}-{tag}.json"  # overwritten by the next run
    out.unlink(missing_ok=True)
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        str(out),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]
    t0 = time.monotonic()
    # its own process group, so a timeout also stops the CLI children
    with subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(args.seed),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            _, stderr = proc.communicate(timeout=max(deadline - t0, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    result = json.loads(out.read_text())
    result["setup_s"] = result["ready"] - t0
    result["wall_s"] = time.monotonic() - t0
    return result


def run_passes(args, deadline: float, traced: bool) -> list[dict]:
    """Fresh-process passes over the workload's inputs until `seconds`
    of timed calls have accumulated and MIN_PASSES passes (traced:
    TRACE_MIN_PASSES of each kind) have run, or the next pass would
    overrun the deadline. The first pass checks every output; later
    passes must reproduce its outputs. With traced set, passes
    alternate traced and untraced."""
    passes: list[dict] = []
    timed_ns = 0
    min_passes = TRACE_MIN_PASSES if traced else MIN_PASSES
    while True:
        kinds = [p["traced"] for p in passes]
        enough = timed_ns >= args.seconds * 1e9 and all(
            kinds.count(k) >= min_passes
            for k in ({False, True} if traced else {False})
        )
        if enough or (passes and time.monotonic() + 1.5 * passes[-1]["wall_s"] > deadline):
            return passes
        trace_this = traced and len(passes) % 2 == 0
        extra = ["--trace"] if trace_this else []
        if not passes:
            extra.append("--check")
        res = worker(args, f"pass{len(passes)}", *extra, deadline=deadline)
        res["traced"] = trace_this
        timed_ns += sum(res["latencies_ns"])
        passes.append(res)


def per_item_ms(passes: list[dict]) -> list[float]:
    """Each item's least latency over the given passes, in ms."""
    return [
        min(column) / 1e6
        for column in zip(*(p["latencies_ns"] for p in passes))
    ]


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (exclusive method), q in 1..99."""
    return statistics.quantiles(values, n=100)[q - 1]


def tally(passes: list[dict]) -> dict:
    """Item executions attempted and failed over all passes. The first
    pass's checks judge each item; a later pass fails an item whose
    output differs from the first pass's."""
    first = passes[0]
    attempted = failed = hard = 0
    reasons: collections.Counter = collections.Counter()
    for res in passes:
        for k, digest in enumerate(res["digests"]):
            attempted += 1
            problems = list(first["problems"][k])
            if digest != first["digests"][k]:
                problems.append(("output differs from the first pass", True))
            if problems:
                failed += 1
                hard += any(h for _, h in problems)
                reasons.update(r for r, _ in problems)
    return {"attempted": attempted, "failed": failed, "hard": hard, "reasons": reasons}


def end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    worker(args, "warm", "--setup-only", deadline=deadline)  # fills the bytecode cache
    setups = [
        worker(args, f"setup{i}", "--setup-only", deadline=deadline)["setup_s"]
        for i in range(SETUP_PROBES)
    ]
    passes = run_passes(args, deadline, traced=False)
    lat_ms = per_item_ms(passes)
    values = {
        "items_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "item_p50_ms": statistics.median(lat_ms),
        "item_p90_ms": quantile(lat_ms, 90),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    return values, passes


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    passes = run_passes(args, deadline, traced=True)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    if not plain:
        raise RuntimeError("the time limit left no untraced pass to compare with")
    n = len(traced[0]["latencies_ns"]) * len(traced)

    def total(key: str, prefix: str, col: int) -> int:
        return sum(
            row[col]
            for res in traced
            for name, row in res[key].items()
            if name == prefix or name.startswith(prefix + ".")
        )

    values: dict = {}
    for prefix in (
        "polyomino",
        "bigraph",
        "gorenstein",
        "toric",
        "toric.inner_minors",
        "toric.initial_ideal",
        "toric.leading_term",
        "toric.verify_groebner",
        "srcomplex",
        "srcomplex.build_complex",
        "srcomplex.f_vector",
        "srcomplex.hilbert_numerator",
        "srcomplex.facets",
        "invariants",
        "invariants.full_report",
        "cli",
    ):
        values[f"{prefix}.self_ms"] = total("self_items", prefix, 1) / n / 1e6
    for prefix in ("polyomino", "bigraph", "invariants.multiplicity_recursive"):
        values[f"{prefix}.calls"] = total("self_items", prefix, 0) / n
    values["generate.self_ms"] = total("self_setup", "generate", 1) / len(traced) / 1e6
    counters: collections.Counter = collections.Counter()
    for res in traced:
        counters.update(res["counters"])
    for key in (
        "gorenstein.subsets_swept",
        "gorenstein.certificates",
        "bigraph.hall_subsets",
        "toric.minors",
        "toric.spairs_total",
        "toric.spairs_overlapping",
        "srcomplex.facets_listed",
    ):
        values[key] = counters[key] / n
    swept = counters["gorenstein.subsets_swept"]
    values["gorenstein.useful_ratio"] = counters["gorenstein.certificates"] / swept if swept else 0.0
    values.update(traced[-1]["caches"])

    untraced_ms = per_item_ms(plain)
    values.update(
        traced[0].get("cli_baselines", {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0})
    )
    for cmd in ("invariants", "gorenstein", "groebner"):
        lat = [ms for ms, label in zip(untraced_ms, plain[0]["labels"]) if label == cmd]
        values[f"cli.{cmd}.p50_ms"] = statistics.median(lat) if lat else 0.0
    traced_sum, untraced_sum = sum(per_item_ms(traced)), sum(untraced_ms)
    values["trace.items"] = len(untraced_ms)
    values["trace.overhead_ms"] = (traced_sum - untraced_sum) / len(untraced_ms)
    values["trace.overhead_ratio"] = (traced_sum - untraced_sum) / untraced_sum
    return values, passes


def machine() -> str:
    load = os.getloadavg()
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"load={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}"
    )


def summary(args, spec: list, values: dict, passes: list[dict], tal: dict) -> None:
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine: {machine()}")
    print(
        "bytecode: PYTHONDONTWRITEBYTECODE cleared for children, "
        f"PYTHONPYCACHEPREFIX={OUT.relative_to(ROOT) / 'pycache'}"
    )
    items = len(passes[0]["latencies_ns"])
    print(
        f"passes: {len(passes)} x {items} items "
        f"(traced: {sum(p['traced'] for p in passes)}); timed s per pass: "
        + " ".join(f"{sum(p['latencies_ns']) / 1e9:.3f}" for p in passes)
    )
    for m in spec:
        print(f"  {m['name']:<40} {values[m['name']]:>14.4f} {m['unit']}")
    print(
        f"  {'failed_ratio':<40} {tal['failed'] / tal['attempted']:>14.4f} ratio "
        f"({tal['failed']} of {tal['attempted']} item runs; {tal['hard']} hard)"
    )
    for reason, count in tal["reasons"].most_common():
        print(f"    failed check: {reason}: {count}")
    traced = [p for p in passes if p["traced"]]
    if traced:
        rows: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        for res in traced:
            for name, (n, self_ns, _) in res["self_items"].items():
                rows[name] += self_ns
                calls[name] += n
        whole = sum(rows.values()) or 1
        print(
            f"  traced spans per pass: {traced[0]['spans']}; "
            "self time by function, share of all traced self time:"
        )
        for name, self_ns in rows.most_common(15):
            print(f"    {name:<40} {100 * self_ns / whole:5.1f}%  calls={calls[name]}")
        counters: collections.Counter = collections.Counter()
        for res in traced:
            counters.update(res["counters"])
        print(
            "  computed counters (read from traced calls' arguments and results "
            f"after each item; base {items * len(traced)} items): "
            + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "polyrings" / "__init__.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'polyrings'}; run from a checkout")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            values, passes = per_layer(args, deadline)
            metrics = spec["per_layer"]
        else:
            values, passes = end_to_end(args, deadline)
            metrics = spec["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    tal = tally(passes)
    summary(args, metrics, values, passes, tal)
    print(
        json.dumps(
            {
                "correct": tal["hard"] == 0,
                "attempted": tal["attempted"],
                "failed": tal["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
